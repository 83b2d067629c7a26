module Json = Json
module Journal = Journal

type ev =
  | Pkt_originate of { flow : int; seq : int; dst : int }
  | Pkt_enqueue of { flow : int; seq : int }
  | Pkt_tx of { flow : int; seq : int; next : int }
  | Pkt_rx of { flow : int; seq : int; from : int }
  | Pkt_forward of { flow : int; seq : int; next : int }
  | Pkt_deliver of { flow : int; seq : int; latency : float; hops : int }
  | Pkt_drop of { flow : int; seq : int; reason : string }
  | Ctl_tx of { kind : string; dst : int }
  | Ctl_rx of { kind : string; from : int }
  | Route_add of { dst : int; via : int; dist : int }
  | Route_del of { dst : int; via : int; reason : string }
  | Label_split of { dst : int; sn : int; label : string }
  | Seqno_reset of { seqno : int }
  | Mac_backoff of { cw : int }
  | Mac_collision
  | Mac_retry_drop of { dst : int }
  | Mac_queue_drop
  | Fault of { kind : string; a : int; b : int }
  | Gauge of {
      routes : int;
      pending : int;
      mac_queue : int;
      live_events : int;
      executed : int;
      events_per_sec : float;
      (* routing-label telemetry (0 off SRP) *)
      label_width_bits : int;
      label_resets : int;
    }

type record = { time : float; node : int; ev : ev }

type jsonl_state = {
  oc : out_channel;
  scratch : Buffer.t;
  (* a one-entry memo of the last timestamp's rendering: most records
     carry the same time as the one before (one event emits several). It
     is keyed on the float's bits, because 0.0 and -0.0 are equal but
     print differently; it starts at (nan, "null"), a true entry. *)
  mutable last_time : float;
  mutable last_time_str : string;
}

type sink =
  | Null
  | Jsonl of jsonl_state
  | Callback of (record -> unit)

type t = { sink : sink; mutable clock : unit -> float }

let null = { sink = Null; clock = (fun () -> 0.0) }

let enabled t =
  match t.sink with Null -> false | Jsonl _ | Callback _ -> true

let jsonl ~clock oc =
  (* abnormal exits (uncaught exception, exit on signal handlers) must
     still leave a valid JSONL prefix: flush whatever was emitted. The
     channel may already be closed by then — that flush failure is fine. *)
  at_exit (fun () -> try flush oc with Sys_error _ -> ());
  {
    sink =
      Jsonl
        {
          oc;
          scratch = Buffer.create 256;
          last_time = Float.nan;
          last_time_str = Json.float_str Float.nan;
        };
    clock;
  }

let callback ~clock f = { sink = Callback f; clock }

let set_clock t clock = if enabled t then t.clock <- clock

let ev_fields = function
  | Pkt_originate { flow; seq; dst } ->
      ("pkt-originate", [ ("flow", Json.Int flow); ("seq", Json.Int seq);
                          ("dst", Json.Int dst) ])
  | Pkt_enqueue { flow; seq } ->
      ("pkt-enqueue", [ ("flow", Json.Int flow); ("seq", Json.Int seq) ])
  | Pkt_tx { flow; seq; next } ->
      ("pkt-tx", [ ("flow", Json.Int flow); ("seq", Json.Int seq);
                   ("next", Json.Int next) ])
  | Pkt_rx { flow; seq; from } ->
      ("pkt-rx", [ ("flow", Json.Int flow); ("seq", Json.Int seq);
                   ("from", Json.Int from) ])
  | Pkt_forward { flow; seq; next } ->
      ("pkt-forward", [ ("flow", Json.Int flow); ("seq", Json.Int seq);
                        ("next", Json.Int next) ])
  | Pkt_deliver { flow; seq; latency; hops } ->
      ("pkt-deliver", [ ("flow", Json.Int flow); ("seq", Json.Int seq);
                        ("latency", Json.Float latency);
                        ("hops", Json.Int hops) ])
  | Pkt_drop { flow; seq; reason } ->
      ("pkt-drop", [ ("flow", Json.Int flow); ("seq", Json.Int seq);
                     ("reason", Json.String reason) ])
  | Ctl_tx { kind; dst } ->
      ("ctl-tx", [ ("kind", Json.String kind); ("dst", Json.Int dst) ])
  | Ctl_rx { kind; from } ->
      ("ctl-rx", [ ("kind", Json.String kind); ("from", Json.Int from) ])
  | Route_add { dst; via; dist } ->
      ("route-add", [ ("dst", Json.Int dst); ("via", Json.Int via);
                      ("dist", Json.Int dist) ])
  | Route_del { dst; via; reason } ->
      ("route-del", [ ("dst", Json.Int dst); ("via", Json.Int via);
                      ("reason", Json.String reason) ])
  | Label_split { dst; sn; label } ->
      ("label-split", [ ("dst", Json.Int dst); ("sn", Json.Int sn);
                        ("label", Json.String label) ])
  | Seqno_reset { seqno } -> ("seqno-reset", [ ("seqno", Json.Int seqno) ])
  | Mac_backoff { cw } -> ("mac-backoff", [ ("cw", Json.Int cw) ])
  | Mac_collision -> ("mac-collision", [])
  | Mac_retry_drop { dst } -> ("mac-retry-drop", [ ("dst", Json.Int dst) ])
  | Mac_queue_drop -> ("mac-queue-drop", [])
  | Fault { kind; a; b } ->
      ("fault", [ ("kind", Json.String kind); ("a", Json.Int a);
                  ("b", Json.Int b) ])
  | Gauge
      { routes; pending; mac_queue; live_events; executed; events_per_sec;
        label_width_bits; label_resets }
    ->
      ("gauge", [ ("routes", Json.Int routes); ("pending", Json.Int pending);
                  ("mac_queue", Json.Int mac_queue);
                  ("live_events", Json.Int live_events);
                  ("executed", Json.Int executed);
                  ("events_per_sec", Json.Float events_per_sec);
                  ("label_width_bits", Json.Int label_width_bits);
                  ("label_resets", Json.Int label_resets) ])

let record_to_json { time; node; ev } =
  let name, fields = ev_fields ev in
  Json.Obj
    (("t", Json.Float time)
    :: ("node", Json.Int node)
    :: ("ev", Json.String name)
    :: fields)

(* The bytes of [Json.to_string (record_to_json r)], written straight into
   the scratch buffer without building the tree. *)
let jsonl_to_scratch s { time; node; ev } =
  let buf = s.scratch in
  if Int64.bits_of_float time <> Int64.bits_of_float s.last_time then begin
    s.last_time <- time;
    s.last_time_str <- Json.float_str time
  end;
  Buffer.add_string buf "{\"t\":";
  Buffer.add_string buf s.last_time_str;
  Buffer.add_string buf ",\"node\":";
  Json.add_int buf node;
  let name, fields = ev_fields ev in
  (* kind names are plain literals: nothing to escape *)
  Buffer.add_string buf ",\"ev\":\"";
  Buffer.add_string buf name;
  Buffer.add_char buf '"';
  List.iter
    (fun member ->
      Buffer.add_char buf ',';
      Json.member_to buf member)
    fields;
  Buffer.add_char buf '}'

(* --prof: time spent writing trace records, and JSONL record sizes *)
let span_sink = Obs.span "trace.sink"
let jsonl_record_bytes = Obs.histogram "trace.jsonl_record_bytes"

let push_body sink r =
  match sink with
  | Null -> ()
  | Jsonl s ->
      Buffer.clear s.scratch;
      jsonl_to_scratch s r;
      Buffer.add_char s.scratch '\n';
      Obs.observe jsonl_record_bytes (Buffer.length s.scratch);
      Buffer.output_buffer s.oc s.scratch
  | Callback f -> f r

let push sink r =
  if Obs.enabled () then begin
    Obs.start span_sink;
    push_body sink r;
    Obs.stop span_sink
  end
  else push_body sink r

let emit t ~node ev = push t.sink { time = t.clock (); node; ev }

let close t = match t.sink with Jsonl { oc; _ } -> flush oc | _ -> ()

(* Emission helpers: the [Null] check comes before the event value is
   built, so disabled tracing costs one branch and zero allocation. *)

let pkt_originate t ~node ~flow ~seq ~dst =
  match t.sink with
  | Null -> ()
  | _ -> emit t ~node (Pkt_originate { flow; seq; dst })

let pkt_enqueue t ~node ~flow ~seq =
  match t.sink with
  | Null -> ()
  | _ -> emit t ~node (Pkt_enqueue { flow; seq })

let pkt_tx t ~node ~flow ~seq ~next =
  match t.sink with
  | Null -> ()
  | _ -> emit t ~node (Pkt_tx { flow; seq; next })

let pkt_rx t ~node ~flow ~seq ~from =
  match t.sink with
  | Null -> ()
  | _ -> emit t ~node (Pkt_rx { flow; seq; from })

let pkt_forward t ~node ~flow ~seq ~next =
  match t.sink with
  | Null -> ()
  | _ -> emit t ~node (Pkt_forward { flow; seq; next })

let pkt_deliver t ~node ~flow ~seq ~latency ~hops =
  match t.sink with
  | Null -> ()
  | _ -> emit t ~node (Pkt_deliver { flow; seq; latency; hops })

let pkt_drop t ~node ~flow ~seq ~reason =
  match t.sink with
  | Null -> ()
  | _ -> emit t ~node (Pkt_drop { flow; seq; reason })

let ctl_tx t ~node ~kind ~dst =
  match t.sink with Null -> () | _ -> emit t ~node (Ctl_tx { kind; dst })

let ctl_rx t ~node ~kind ~from =
  match t.sink with Null -> () | _ -> emit t ~node (Ctl_rx { kind; from })

let route_add t ~node ~dst ~via ~dist =
  match t.sink with
  | Null -> ()
  | _ -> emit t ~node (Route_add { dst; via; dist })

let route_del t ~node ~dst ~via ~reason =
  match t.sink with
  | Null -> ()
  | _ -> emit t ~node (Route_del { dst; via; reason })

let label_split t ~node ~dst ~sn ~label =
  match t.sink with
  | Null -> ()
  | _ -> emit t ~node (Label_split { dst; sn; label })

let seqno_reset t ~node ~seqno =
  match t.sink with Null -> () | _ -> emit t ~node (Seqno_reset { seqno })

let mac_backoff t ~node ~cw =
  match t.sink with Null -> () | _ -> emit t ~node (Mac_backoff { cw })

let mac_collision t ~node =
  match t.sink with Null -> () | _ -> emit t ~node Mac_collision

let mac_retry_drop t ~node ~dst =
  match t.sink with Null -> () | _ -> emit t ~node (Mac_retry_drop { dst })

let mac_queue_drop t ~node =
  match t.sink with Null -> () | _ -> emit t ~node Mac_queue_drop

let fault t ~kind ~a ~b =
  match t.sink with Null -> () | _ -> emit t ~node:(-1) (Fault { kind; a; b })

let gauge t ~routes ~pending ~mac_queue ~live_events ~executed ~events_per_sec
    ~label_width_bits ~label_resets =
  match t.sink with
  | Null -> ()
  | _ ->
      emit t ~node:(-1)
        (Gauge
           { routes; pending; mac_queue; live_events; executed;
             events_per_sec; label_width_bits; label_resets })
