(* Every metric the benchmark reports, with its unit. BENCHMARK.json lists
   the same names and units; the test suite checks that the two agree.
   [exact] marks counts that must repeat exactly for a given seed.
   README.md's glossary says which layer each belongs to and which
   end-to-end metric it should move. *)

type metric = { name : string; unit : string; exact : bool }

let m ?(exact = false) name unit = { name; unit; exact }

(* measured on the untraced pass, one value per workload *)
let end_to_end =
  [ m "wall_s" "s"; m "setup_s" "s"; m "peak_rss_mb" "MB" ]

(* measured on world 0's traced run, except the gc.* and des.events*
   rows, which come from its untraced run so the wrappers do not perturb
   them; see [untraced_layer] *)
let per_layer =
  [
    m ~exact:true "des.events" "count";
    m "des.events_per_s" "1/s";
    m "des.dispatch_ns_per_event" "ns";
    m "des.share" "ratio";
    m ~exact:true "channel.transmits" "count";
    m "channel.transmit_ns" "ns";
    m "channel.transmit_ns_p50" "ns";
    m "channel.transmit_ns_p99" "ns";
    m ~exact:true "channel.rx_events" "count";
    m "channel.rx_self_ns" "ns";
    m ~exact:true "channel.grid_rebuilds" "count";
    m ~exact:true "channel.collisions" "count";
    m "channel.self_s" "s";
    m "channel.share" "ratio";
    m ~exact:true "mac.backoff_events" "count";
    m ~exact:true "mac.backoffs_per_transmit" "ratio";
    m "mac.self_s" "s";
    m ~exact:true "mac.sends" "count";
    m "mac.send_ns" "ns";
    m ~exact:true "mac.drop_queue_full" "count";
    m ~exact:true "mac.drop_retry" "count";
    m "mac.share" "ratio";
    m ~exact:true "proto.handler_calls" "count";
    m "proto.handler_self_s" "s";
    m "proto.handler_ns_p50" "ns";
    m "proto.handler_ns_p99" "ns";
    m "proto.timer_s" "s";
    m ~exact:true "proto.control_tx" "count";
    m "proto.share" "ratio";
    m ~exact:true "traffic.originated" "count";
    m ~exact:true "trace.records" "count";
    m ~exact:true "trace.bytes" "bytes";
    m "trace.sink_s" "s";
    m "trace.ns_per_record" "ns";
    m "trace.share" "ratio";
    m ~exact:true "faults.events" "count";
    m ~exact:true "faults.frames_blocked" "count";
    m ~exact:true "pool.cells" "count";
    m "pool.busy_s" "s";
    m "pool.utilisation" "ratio";
    m "pool.straggler_s" "s";
    m ~exact:true "supervisor.retries" "count";
    m ~exact:true "supervisor.quarantined" "count";
    m "gc.minor_words_per_event" "words";
    m "gc.promoted_words_per_event" "words";
    m "gc.minor_collections" "count";
    m "gc.major_collections" "count";
    m "trace_overhead_frac" "ratio";
  ]

(* per-layer rows taken from the untraced pass *)
let untraced_layer name =
  String.starts_with ~prefix:"gc." name
  || name = "des.events" || name = "des.events_per_s"

let error_rate = m "error_rate" "ratio"

let find name =
  List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer @ [ error_rate ])
