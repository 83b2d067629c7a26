(* One repetition of one workload, run inside a child process: build the
   world, run it, check its outcome, and turn what was measured into a
   sample. The untraced pass measures wall time, setup time, peak RSS and
   GC deltas; the traced pass adds bench-side spans around the agent and
   ctx closures plus the program's own Obs registry, from which the
   per-layer ledger below is computed. *)

module J = Trace.Json
module R = Protocols.Routing_intf

type sample = {
  ok : bool;
  error : string;  (** why the run failed; empty when [ok] *)
  digest : string;  (** outcome digest, compared across passes and pins *)
  wall_s : float;
  setup_s : float;
  peak_rss_mb : float;
  layers : (string * float) list;
}

let failed error =
  {
    ok = false;
    error;
    digest = "";
    wall_s = nan;
    setup_s = nan;
    peak_rss_mb = nan;
    layers = [];
  }

let sample_to_json s =
  J.Obj
    [
      ("ok", J.Bool s.ok);
      ("error", J.String s.error);
      ("digest", J.String s.digest);
      ("wall_s", J.Float s.wall_s);
      ("setup_s", J.Float s.setup_s);
      ("peak_rss_mb", J.Float s.peak_rss_mb);
      ("layers", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) s.layers));
    ]

let sample_of_json json =
  let num = function
    | Some (J.Float f) -> f
    | Some (J.Int i) -> float_of_int i
    | _ -> nan
  in
  match
    (J.member "ok" json, J.member "error" json, J.member "digest" json,
     J.member "layers" json)
  with
  | Some (J.Bool ok), Some (J.String error), Some (J.String digest),
    Some (J.Obj layers) ->
      Some
        {
          ok;
          error;
          digest;
          wall_s = num (J.member "wall_s" json);
          setup_s = num (J.member "setup_s" json);
          peak_rss_mb = num (J.member "peak_rss_mb" json);
          layers = List.map (fun (k, v) -> (k, num (Some v))) layers;
        }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Outcome digests. Engine event counts are left out on purpose: a
   change that removes redundant events keeps the outcome. *)

let digest_string s = String.sub (Digest.to_hex (Digest.string s)) 0 16

let run_digest (r : Sim.Metrics.result) =
  digest_string
    (Printf.sprintf "%d %d %d %d %d %d %d" r.sent r.delivered r.control_tx
       r.data_tx r.collisions r.drop_queue_full r.drop_retry)

(* over the per-cell aggregates in canonical order, exact float bits, so
   the digest does not depend on the campaign JSON's schema *)
let campaign_digest (c : Sim.Experiment.t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun protocol ->
      List.iter
        (fun pause ->
          match Hashtbl.find_opt c.cells (protocol, pause) with
          | None -> Buffer.add_string b "-;"
          | Some cell ->
              let bits s = Int64.bits_of_float (Stats.Summary.mean s) in
              Printf.bprintf b "%s %g %d %Lx %Lx %Lx %Lx %Lx;"
                (Sim.Config.protocol_name protocol)
                pause
                (Stats.Summary.count cell.delivery)
                (bits cell.delivery) (bits cell.load) (bits cell.latency)
                (bits cell.mac_drops) (bits cell.seqno))
        c.pauses)
    c.protocols;
  digest_string (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Instrumentation *)

let span_names =
  [|
    "runner.build"; "agent.receive"; "agent.originate"; "agent.unicast_ok";
    "agent.unicast_failed"; "ctx.mac_send"; "ctx.deliver"; "ctx.drop_data";
  |]

let agent_names =
  [ "agent.receive"; "agent.originate"; "agent.unicast_ok";
    "agent.unicast_failed" ]

(* Sim.Runner's own agent factory, which it does not export *)
let make_agent (config : Sim.Config.t) ctx =
  match config.protocol with
  | Sim.Config.Srp -> Protocols.Srp.create ~config:config.srp ctx
  | Sim.Config.Ldr -> Protocols.Ldr.create ~config:config.ldr ctx
  | Sim.Config.Aodv -> Protocols.Aodv.create ~config:config.aodv ctx
  | Sim.Config.Dsr -> Protocols.Dsr.create ~config:config.dsr ctx
  | Sim.Config.Olsr -> Protocols.Olsr.create ~config:config.olsr ctx

(* the runner's [build] hook with every agent handler and ctx capability
   wrapped in a bench span *)
let traced_build sp config =
  let id = Spans.id sp in
  let build = id "runner.build" and receive = id "agent.receive" in
  let originate = id "agent.originate" and ok = id "agent.unicast_ok" in
  let fail = id "agent.unicast_failed" and send = id "ctx.mac_send" in
  let deliver = id "ctx.deliver" and drop = id "ctx.drop_data" in
  fun _node (ctx : R.ctx) ->
    Spans.start sp build;
    let ctx =
      {
        ctx with
        R.mac_send =
          (fun f ->
            Spans.start sp send;
            ctx.R.mac_send f;
            Spans.stop sp);
        deliver =
          (fun d ->
            Spans.start sp deliver;
            ctx.R.deliver d;
            Spans.stop sp);
        drop_data =
          (fun d ~reason ->
            Spans.start sp drop;
            ctx.R.drop_data d ~reason;
            Spans.stop sp);
      }
    in
    let a = make_agent config ctx in
    Spans.stop sp;
    {
      a with
      R.receive =
        (fun ~src f ->
          Spans.start sp receive;
          a.R.receive ~src f;
          Spans.stop sp);
      originate =
        (fun d ~size ->
          Spans.start sp originate;
          a.R.originate d ~size;
          Spans.stop sp);
      unicast_ok =
        (fun ~frame ~dst ->
          Spans.start sp ok;
          a.R.unicast_ok ~frame ~dst;
          Spans.stop sp);
      unicast_failed =
        (fun ~frame ~dst ->
          Spans.start sp fail;
          a.R.unicast_failed ~frame ~dst;
          Spans.stop sp);
    }

(* Where each span runs — the nesting table in README.md. Top-level event
   kinds sit under "run". A bench span with no bench parent gets the
   engine event it always runs in. "event.mac" groups the MAC's event
   kinds, "proto.timer" the protocols' timer events. Spans under "*" cut
   across layers and are subtracted from none. *)
let is_timer n =
  String.starts_with ~prefix:"proto." n && String.ends_with ~suffix:".timer" n

let is_receive n =
  String.starts_with ~prefix:"proto." n
  && String.ends_with ~suffix:".receive" n

let enclosing = function
  | "agent.receive" | "agent.unicast_ok" -> "event.channel.rx"
  | "agent.unicast_failed" -> "event.mac"
  | "agent.originate" -> "event.traffic"
  | "ctx.mac_send" | "ctx.deliver" | "ctx.drop_data" -> "proto.timer"
  | _ -> "*"

let bench_entries sp =
  List.map
    (fun (e : Spans.entry) ->
      if e.parent = Spans.root then { e with parent = enclosing e.name } else e)
    (Spans.entries sp)

(* The runner's own proto.<p>.receive span measures what agent.receive
   does; it stands in for it only when the agents were not wrapped (the
   campaign, whose worlds Sim.Experiment builds). *)
let obs_entries ~wrapped (snap : Obs.snapshot) =
  List.filter_map
    (fun (d : Obs.dist) ->
      let entry name parent =
        Some
          {
            Spans.name;
            parent;
            count = d.dist_count;
            total_ns = d.dist_total;
            buckets = d.dist_buckets;
          }
      in
      let n = d.dist_name in
      if String.starts_with ~prefix:"channel.transmit." n then
        entry "channel.transmit" "event.mac"
      else if n = "channel.grid.rebuild" then entry n "channel.transmit"
      else if is_receive n then
        if wrapped then None else entry "agent.receive" "event.channel.rx"
      else if is_timer n || String.starts_with ~prefix:"event." n then
        entry n "run"
      else entry n "*")
    snap.spans

type counts = {
  events : int;
  collisions : int;
  drop_queue_full : int;
  drop_retry : int;
  control_tx : int;
  originated : int;
  fault_events : int;
  frames_blocked : int;
}

let run_counts (r : Sim.Metrics.result) =
  {
    events = r.engine_events;
    collisions = r.collisions;
    drop_queue_full = r.drop_queue_full;
    drop_retry = r.drop_retry;
    control_tx = r.control_tx;
    originated = r.sent;
    fault_events = r.fault_events;
    frames_blocked = r.fault_frames_blocked;
  }

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let s_of_ns ns = fi ns /. 1e9

let busy_ns (snap : Obs.snapshot) =
  List.fold_left (fun acc (w : Obs.worker) -> acc + w.w_busy_ns) 0 snap.workers

(* The per-layer ledger. [run_ns] is the time the layers share: on_start
   to the end of the run for one world, the workers' summed busy time for
   a campaign. *)
let ledger ~es ~(snap : Obs.snapshot) ~run_ns ~counts ~(gc : Obs.gc_delta)
    ~jobs ~wall =
  let names p =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : Spans.entry) -> if p e then Some e.name else None)
         es)
  in
  let events = counts.events in
  let run = fi run_ns in
  let per_event x = ratio x (fi events) in
  let total = Spans.total_ns es and count = Spans.count es in
  let event_ns =
    List.fold_left
      (fun acc (e : Spans.entry) -> if e.parent = "run" then acc + e.total_ns else acc)
      0 es
  in
  let dispatch_ns = run_ns - event_ns in
  let transmits = count "channel.transmit" in
  let transmit_dist = Spans.dist es [ "channel.transmit" ] in
  let channel_self =
    Spans.self_ns es [ "channel.transmit"; "channel.grid.rebuild"; "event.channel.rx" ]
  in
  let mac_group =
    "event.mac"
    :: names (fun e -> String.starts_with ~prefix:"event.mac." e.name)
  in
  let mac_self = Spans.self_ns es mac_group in
  let sends = count "ctx.mac_send" and send_ns = total "ctx.mac_send" in
  let handler_calls =
    List.fold_left (fun acc n -> acc + count n) 0 agent_names
  in
  let handler_self = Spans.self_ns es agent_names in
  let handler_dist = Spans.dist es agent_names in
  let timer_self =
    Spans.self_ns es ("proto.timer" :: names (fun e -> is_timer e.name))
  in
  let sink_ns = total "trace.sink" and records = count "trace.sink" in
  let trace_bytes =
    List.fold_left
      (fun acc (d : Obs.dist) ->
        if d.dist_name = "trace.jsonl_record_bytes" then acc + d.dist_total
        else acc)
      0 snap.hists
  in
  let busy = List.map (fun (w : Obs.worker) -> w.w_busy_ns) snap.workers in
  let busy_ns = busy_ns snap in
  let busy_padded =
    busy @ List.init (Stdlib.max 0 (jobs - List.length busy)) (fun _ -> 0)
  in
  let cells =
    List.fold_left (fun acc (w : Obs.worker) -> acc + w.w_cells) 0 snap.workers
  in
  let straggler_ns =
    if cells = 0 then 0
    else
      List.fold_left Stdlib.max 0 busy_padded
      - List.fold_left Stdlib.min max_int busy_padded
  in
  [
    ("des.events", fi events);
    ("des.events_per_s", ratio (fi events) wall);
    ("des.dispatch_ns_per_event", per_event (fi dispatch_ns));
    ("des.share", ratio (fi dispatch_ns) run);
    ("channel.transmits", fi transmits);
    ("channel.transmit_ns", ratio (fi (total "channel.transmit")) (fi transmits));
    ("channel.transmit_ns_p50", fi (Obs.percentile transmit_dist 0.5));
    ("channel.transmit_ns_p99", fi (Obs.percentile transmit_dist 0.99));
    ("channel.rx_events", fi (count "event.channel.rx"));
    ( "channel.rx_self_ns",
      ratio (fi (Spans.self_ns es [ "event.channel.rx" ]))
        (fi (count "event.channel.rx")) );
    ("channel.grid_rebuilds", fi (count "channel.grid.rebuild"));
    ("channel.collisions", fi counts.collisions);
    ("channel.self_s", s_of_ns channel_self);
    ("channel.share", ratio (fi channel_self) run);
    ("mac.backoff_events", fi (count "event.mac.backoff"));
    ( "mac.backoffs_per_transmit",
      ratio (fi (count "event.mac.backoff")) (fi transmits) );
    ("mac.self_s", s_of_ns mac_self);
    ("mac.sends", fi sends);
    ("mac.send_ns", ratio (fi send_ns) (fi sends));
    ("mac.drop_queue_full", fi counts.drop_queue_full);
    ("mac.drop_retry", fi counts.drop_retry);
    ("mac.share", ratio (fi (mac_self + send_ns)) run);
    ("proto.handler_calls", fi handler_calls);
    ("proto.handler_self_s", s_of_ns handler_self);
    ("proto.handler_ns_p50", fi (Obs.percentile handler_dist 0.5));
    ("proto.handler_ns_p99", fi (Obs.percentile handler_dist 0.99));
    ("proto.timer_s", s_of_ns timer_self);
    ("proto.control_tx", fi counts.control_tx);
    ("proto.share", ratio (fi (handler_self + timer_self)) run);
    ("traffic.originated", fi counts.originated);
    ("trace.records", fi records);
    ("trace.bytes", fi trace_bytes);
    ("trace.sink_s", s_of_ns sink_ns);
    ("trace.ns_per_record", ratio (fi sink_ns) (fi records));
    ("trace.share", ratio (fi sink_ns) run);
    ("faults.events", fi counts.fault_events);
    ("faults.frames_blocked", fi counts.frames_blocked);
    ("pool.cells", fi cells);
    ("pool.busy_s", s_of_ns busy_ns);
    ("pool.utilisation", ratio (s_of_ns busy_ns) (fi jobs *. wall));
    ("pool.straggler_s", s_of_ns straggler_ns);
    ("supervisor.retries", fi (Sim.Supervisor.retries_total ()));
    ("supervisor.quarantined", fi (Sim.Supervisor.quarantined_total ()));
    ("gc.minor_words_per_event", per_event (fi gc.gc_minor_words));
    ("gc.promoted_words_per_event", per_event (fi gc.gc_promoted_words));
    ("gc.minor_collections", fi gc.gc_minor_collections);
    ("gc.major_collections", fi gc.gc_major_collections);
  ]

(* ------------------------------------------------------------------ *)
(* Running a job *)

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | status ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
          | kb -> fi kb /. 1024.0
          | exception _ -> acc)
        nan
        (String.split_on_char '\n' status)

let now = Unix.gettimeofday

let median xs =
  match List.sort compare (List.filter Float.is_finite xs) with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

exception Built

(* set-up-only builds a child makes before its measured run; [setup_s] is
   the median over them (and the run's own set-up, for one world) *)
let setups = 5

(* run_custom up to its on_start hook, then abandon the world *)
let setup_only config =
  let t0 = now () in
  (try
     ignore
       (Sim.Runner.run_custom config
          ~build:(fun _ ctx -> make_agent config ctx)
          ~on_start:(fun _ -> raise Built))
   with Built -> ());
  now () -. t0

let check_run (config : Sim.Config.t) (r : Sim.Metrics.result) =
  let faulted = not (Faults.Spec.is_none config.faults) in
  if r.sent <= 0 then Some "no packet originated"
  else if r.delivered > r.sent then
    Some (Printf.sprintf "delivered %d > sent %d" r.delivered r.sent)
  else if r.engine_events <= 0 then Some "no engine event"
  else if faulted && r.fault_events <= 0 then Some "fault plan never fired"
  else None

let check_campaign (c : Sim.Experiment.t) =
  let missing =
    List.exists
      (fun p ->
        List.exists
          (fun pause ->
            match Hashtbl.find_opt c.cells (p, pause) with
            | None -> true
            | Some cell ->
                let d = Stats.Summary.mean cell.delivery in
                Stats.Summary.count cell.delivery <> 1 || d < 0.0 || d > 1.0)
          c.pauses)
      c.protocols
  in
  match c.failures with
  | _ :: _ ->
      Some (Printf.sprintf "%d cell(s) quarantined" (List.length c.failures))
  | [] ->
      if missing then Some "a cell is missing or out of range"
      else if c.engine_events <= 0 then Some "no engine event"
      else None

let finish ~error ~digest ~wall ~setup ~layers =
  {
    ok = error = None;
    error = Option.value error ~default:"";
    digest;
    wall_s = wall;
    setup_s = setup;
    peak_rss_mb = peak_rss_mb ();
    layers;
  }

(* the set-up-only builds, then a compaction so the measured run starts
   from a heap as small as a fresh process's *)
let setup_runs config =
  let times = List.init setups (fun _ -> setup_only config) in
  Gc.compact ();
  times

let run_world ~traced config ~jsonl =
  let setup_times = setup_runs config in
  let trace =
    if jsonl then Trace.jsonl ~clock:(fun () -> 0.0) (open_out_bin "/dev/null")
    else Trace.null
  in
  let sp = Spans.create span_names in
  let build =
    if traced then traced_build sp config else fun _ ctx -> make_agent config ctx
  in
  if traced then Obs.enable ();
  let started = ref nan in
  let t0 = now () in
  let result, gc =
    Obs.gc_capture (fun () ->
        Sim.Runner.run_custom ~trace config ~build ~on_start:(fun _ ->
            started := now ()))
  in
  let t1 = now () in
  Obs.disable ();
  let snap = Obs.snapshot () in
  let es = bench_entries sp @ obs_entries ~wrapped:traced snap in
  finish ~error:(check_run config result) ~digest:(run_digest result)
    ~wall:(t1 -. t0)
    ~setup:(median ((!started -. t0) :: setup_times))
    ~layers:
      (ledger ~es ~snap
         ~run_ns:(int_of_float ((t1 -. !started) *. 1e9))
         ~counts:(run_counts result) ~gc ~jobs:1 ~wall:(t1 -. t0))

let run_campaign ~traced ~base ~protocols ~pauses ~pause_scale ~jobs =
  let first =
    {
      base with
      Sim.Config.protocol = List.hd protocols;
      pause = List.hd pauses *. pause_scale;
    }
  in
  let setup = median (setup_runs first) in
  if traced then Obs.enable ();
  let t0 = now () in
  let campaign, gc =
    Obs.gc_capture (fun () ->
        Sim.Experiment.run ~policy:Sim.Supervisor.default ~jobs ~pause_scale
          ~base ~protocols ~pauses ~trials:1 ~progress:ignore ())
  in
  let wall = now () -. t0 in
  Obs.disable ();
  let snap = Obs.snapshot () in
  let counts =
    {
      events = campaign.engine_events;
      collisions = 0;
      drop_queue_full = 0;
      drop_retry = 0;
      control_tx = 0;
      originated = 0;
      fault_events = 0;
      frames_blocked = 0;
    }
  in
  finish ~error:(check_campaign campaign) ~digest:(campaign_digest campaign)
    ~wall ~setup
    ~layers:
      (ledger ~es:(obs_entries ~wrapped:false snap) ~snap
         ~run_ns:(busy_ns snap) ~counts ~gc ~jobs ~wall)

let run ~traced (w : Workloads.t) ~seed ~smoke =
  match w.job ~seed ~smoke with
  | Workloads.Run { config; jsonl } -> run_world ~traced config ~jsonl
  | Workloads.Campaign { base; protocols; pauses; pause_scale; jobs } ->
      run_campaign ~traced ~base ~protocols ~pauses ~pause_scale ~jobs
