(* Integration tests: traffic generation, metrics accounting, end-to-end
   simulations for every protocol, determinism, the campaign/report layer,
   and the headline property — SRP's loop-freedom under mobility. *)

module C = Sim.Config

let quick_config protocol =
  {
    C.small with
    protocol;
    nodes = 30;
    terrain = Wireless.Terrain.make ~width:900.0 ~height:300.0;
    duration = 40.0;
    flows = 4;
    pause = 900.0;
    seed = 3;
  }

(* ------------------------------------------------------------------ *)
(* Traffic *)

let test_cbr_generation () =
  let rng = Des.Rng.create 4L in
  let flows =
    Traffic.Cbr.generate ~rng ~nodes:20 ~concurrent:5 ~from_time:10.0
      ~until:100.0 ~mean_duration:30.0
  in
  Alcotest.(check bool) "at least one flow per slot" true
    (List.length flows >= 5);
  List.iter
    (fun f ->
      Alcotest.(check bool) "src <> dst" true Traffic.Cbr.(f.src <> f.dst);
      Alcotest.(check bool) "window" true
        Traffic.Cbr.(f.start >= 10.0 && f.stop <= 100.0))
    flows;
  (* each slot covers the window back-to-back *)
  let slot0 =
    List.filter (fun f -> f.Traffic.Cbr.id mod 5 = 0) flows
  in
  ignore slot0;
  let total = Traffic.Cbr.packet_count ~flows ~rate:4.0 in
  Alcotest.(check bool) "plausible packet count" true
    (total > 5 * 80 && total <= 5 * 4 * 91)

let test_cbr_schedule_counts () =
  let engine = Des.Engine.create () in
  let rng = Des.Rng.create 4L in
  let flows =
    Traffic.Cbr.generate ~rng ~nodes:20 ~concurrent:3 ~from_time:0.0
      ~until:30.0 ~mean_duration:10.0
  in
  let sent = ref 0 in
  Traffic.Cbr.schedule engine ~flows ~rate:4.0 ~size:512
    ~send:(fun ~src:_ data ~size ->
      Alcotest.(check int) "size" 512 size;
      Alcotest.(check bool) "stamped" true (data.Wireless.Frame.sent_at >= 0.0);
      incr sent);
  Des.Engine.run_all engine;
  Alcotest.(check bool) "packets emitted" true (!sent > 0);
  Alcotest.(check bool) "bounded by count" true
    (!sent <= Traffic.Cbr.packet_count ~flows ~rate:4.0)

let test_cbr_deterministic () =
  let gen () =
    Traffic.Cbr.generate
      ~rng:(Des.Rng.create 8L)
      ~nodes:10 ~concurrent:4 ~from_time:0.0 ~until:50.0 ~mean_duration:20.0
  in
  Alcotest.(check bool) "same seed, same script" true (gen () = gen ())

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_accounting () =
  let m = Sim.Metrics.create () in
  let data seq =
    { Wireless.Frame.origin = 0; final_dst = 1; flow = 0; seq; sent_at = 1.0;
      hops = 0 }
  in
  Sim.Metrics.on_sent m (data 1);
  Sim.Metrics.on_sent m (data 2);
  Sim.Metrics.on_delivered m ~now:1.5 (data 1);
  (* duplicate delivery of the same packet must not double count *)
  Sim.Metrics.on_delivered m ~now:1.6 (data 1);
  Sim.Metrics.on_dropped m ~now:2.0 (data 2) ~reason:"test";
  (* the flow delivers again 0.7 s after its first drop: one recovery *)
  Sim.Metrics.on_delivered m ~now:2.7 (data 3);
  let gauges =
    [ { Protocols.Routing_intf.own_seqno = 4; max_denominator = 7;
        seqno_resets = 1; route_entries = 2; pending_packets = 0;
        label_width_bits = 13; label_resets = 1 };
      { Protocols.Routing_intf.own_seqno = 0; max_denominator = 3;
        seqno_resets = 0; route_entries = 1; pending_packets = 3;
        label_width_bits = 7; label_resets = 0 } ]
  in
  let r =
    Sim.Metrics.finalize m ~control_tx:10 ~data_tx:5 ~drop_queue_full:1
      ~drop_retry:2 ~collisions:4 ~nodes:2 ~gauges ~fault_events:0
      ~fault_frames_blocked:0 ~engine_events:1234
  in
  Alcotest.(check int) "sent" 2 r.Sim.Metrics.sent;
  Alcotest.(check int) "delivered" 2 r.Sim.Metrics.delivered;
  Alcotest.(check int) "label width is the gauge max" 13
    r.Sim.Metrics.label_width_bits;
  Alcotest.(check int) "label resets summed" 1 r.Sim.Metrics.label_resets;
  Alcotest.(check (float 1e-9)) "ratio" 1.0 r.Sim.Metrics.delivery_ratio;
  Alcotest.(check (float 1e-9)) "load" 5.0 r.Sim.Metrics.network_load;
  Alcotest.(check (float 1e-9)) "latency" 1.1 r.Sim.Metrics.latency;
  Alcotest.(check int) "one recovery" 1 r.Sim.Metrics.recoveries;
  Alcotest.(check (float 1e-9)) "recovery time" 0.7 r.Sim.Metrics.recovery_mean;
  Alcotest.(check (float 1e-9)) "drops per node" 1.5 r.Sim.Metrics.mac_drops_per_node;
  Alcotest.(check (float 1e-9)) "avg seqno" 2.0 r.Sim.Metrics.avg_seqno;
  Alcotest.(check int) "max denom" 7 r.Sim.Metrics.max_denominator;
  Alcotest.(check int) "resets" 1 r.Sim.Metrics.seqno_resets;
  Alcotest.(check (list (pair string int))) "drop reasons" [ ("test", 1) ]
    r.Sim.Metrics.drop_reasons

(* ------------------------------------------------------------------ *)
(* End-to-end runs *)

let test_protocol_delivers protocol () =
  let r = Sim.Runner.run (quick_config protocol) in
  Alcotest.(check bool)
    (Printf.sprintf "%s delivers >= 0.85 (got %.3f)"
       (C.protocol_name protocol) r.Sim.Metrics.delivery_ratio)
    true
    (r.Sim.Metrics.delivery_ratio >= 0.85);
  Alcotest.(check bool) "some control traffic" true (r.Sim.Metrics.control_tx > 0)

let test_run_deterministic () =
  let a = Sim.Runner.run (quick_config C.Srp) in
  let b = Sim.Runner.run (quick_config C.Srp) in
  Alcotest.(check int) "same delivered" a.Sim.Metrics.delivered
    b.Sim.Metrics.delivered;
  Alcotest.(check int) "same control" a.Sim.Metrics.control_tx
    b.Sim.Metrics.control_tx;
  Alcotest.(check (float 1e-12)) "same latency" a.Sim.Metrics.latency
    b.Sim.Metrics.latency

let test_seed_changes_outcome () =
  let a = Sim.Runner.run (quick_config C.Srp) in
  let b = Sim.Runner.run { (quick_config C.Srp) with C.seed = 4 } in
  Alcotest.(check bool) "different seeds differ somewhere" true
    (a.Sim.Metrics.delivered <> b.Sim.Metrics.delivered
    || a.Sim.Metrics.control_tx <> b.Sim.Metrics.control_tx)

let test_srp_zero_seqno_static () =
  let r = Sim.Runner.run (quick_config C.Srp) in
  Alcotest.(check (float 0.0)) "SRP seqno identically zero" 0.0
    r.Sim.Metrics.avg_seqno;
  Alcotest.(check bool) "denominator far below the bound" true
    (r.Sim.Metrics.max_denominator < 1_000_000)

let test_srp_farey_splits_variant () =
  let mobile =
    { (quick_config C.Srp) with C.pause = 0.0; duration = 40.0; flows = 5 }
  in
  let mediant = Sim.Runner.run mobile in
  let farey = Sim.Runner.run (C.with_labels mobile Slr.Label_set.Farey) in
  Alcotest.(check bool) "farey variant still delivers" true
    (farey.Sim.Metrics.delivery_ratio >= 0.7);
  Alcotest.(check bool)
    (Printf.sprintf "farey labels no wider (%d vs %d)"
       farey.Sim.Metrics.max_denominator mediant.Sim.Metrics.max_denominator)
    true
    (farey.Sim.Metrics.max_denominator <= mediant.Sim.Metrics.max_denominator)

(* The grid channel against its oracle, the naive full scan, in whole
   worlds: a kilonode SRP world (dense grid, heavy carrier sense) and a
   100-node world under the hostile fault plan. Results hold nan floats,
   so their JSON is compared rather than the records. *)
let test_grid_matches_naive () =
  let kilo =
    let scale = Option.get (C.scale_of_name "1k") in
    let config =
      C.apply_scale scale { C.reproduction with protocol = C.Srp; pause = 0.0 }
    in
    { config with C.traffic_start = 0.5; duration = 2.0 }
  in
  let hostile =
    Sim.Scenario.apply
      (Option.get (Sim.Scenario.find "hostile"))
      { C.paper with duration = 15.0; traffic_start = 4.0; seed = 2 }
  in
  List.iter
    (fun (name, config) ->
      let result channel =
        Trace.Json.to_string
          (Sim.Metrics.result_json (Sim.Runner.run { config with C.channel }))
      in
      Alcotest.(check string) name (result C.Naive) (result C.Grid))
    [ ("1k-node SRP", kilo); ("hostile, 100 nodes", hostile) ]

let test_srp_farey_loop_free () =
  let config =
    C.with_labels
      { (quick_config C.Srp) with C.pause = 0.0; duration = 30.0; flows = 5 }
      Slr.Label_set.Farey
  in
  match Sim.Loopcheck.run config ~interval:0.5 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_srp_loop_free_static () =
  match Sim.Loopcheck.run (quick_config C.Srp) ~interval:1.0 with
  | Ok (_, sweeps, edges) ->
      Alcotest.(check bool) "swept" true (sweeps >= 30);
      Alcotest.(check bool) "edges inspected" true (edges > 0)
  | Error e -> Alcotest.fail e

let test_srp_loop_free_mobile () =
  let config =
    { (quick_config C.Srp) with C.pause = 0.0; duration = 60.0; flows = 5 }
  in
  match Sim.Loopcheck.run config ~interval:0.5 with
  | Ok (_, sweeps, _) -> Alcotest.(check bool) "swept" true (sweeps >= 100)
  | Error e -> Alcotest.fail e

let test_srp_loop_free_mobile_seeds () =
  List.iter
    (fun seed ->
      let config =
        {
          (quick_config C.Srp) with
          C.pause = 0.0;
          duration = 30.0;
          flows = 6;
          seed;
        }
      in
      match Sim.Loopcheck.run config ~interval:0.5 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "seed %d: %s" seed e)
    [ 11; 12; 13 ]

(* ------------------------------------------------------------------ *)
(* Campaign + report *)

let test_campaign_and_report () =
  let base =
    {
      (quick_config C.Srp) with
      C.duration = 20.0;
      nodes = 25;
      flows = 3;
    }
  in
  let campaign =
    Sim.Experiment.run ~jobs:1 ~pause_scale:1.0 ~base
      ~protocols:[ C.Srp; C.Aodv ]
      ~pauses:[ 0.0; 900.0 ] ~trials:2
      ~progress:(fun _ -> ()) ()
  in
  let cell = Sim.Experiment.cell campaign C.Srp 0.0 in
  Alcotest.(check int) "two trials per cell" 2
    (Stats.Summary.count cell.Sim.Experiment.delivery);
  let delivery, load, latency = Sim.Experiment.overall campaign C.Srp in
  Alcotest.(check int) "overall pools both pauses" 4
    (Stats.Summary.count delivery);
  Alcotest.(check bool) "load non-negative" true (Stats.Summary.mean load >= 0.0);
  Alcotest.(check bool) "latency non-negative" true
    (Stats.Summary.mean latency >= 0.0);
  (* the report renders every artifact without raising *)
  let rendered = Format.asprintf "%a" Sim.Report.all campaign in
  let contains needle =
    let nl = String.length needle and hl = String.length rendered in
    let rec scan i = i + nl <= hl && (String.sub rendered i nl = needle || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains needle))
    [ "Table I"; "Fig. 3"; "Fig. 4"; "Fig. 5"; "Fig. 6"; "Fig. 7"; "SRP"; "AODV" ]

(* ------------------------------------------------------------------ *)
(* Worker pool + parallel equivalence *)

let test_pool_map_order () =
  let items = Array.init 37 Fun.id in
  let f x = (x * x) + 1 in
  let sequential = Sim.Pool.map ~jobs:1 f items in
  let parallel = Sim.Pool.map ~jobs:4 f items in
  Alcotest.(check (array int)) "jobs=1 matches Array.map" (Array.map f items)
    sequential;
  Alcotest.(check (array int)) "jobs=4 preserves order" sequential parallel;
  Alcotest.(check (array int)) "empty input" [||] (Sim.Pool.map ~jobs:4 f [||]);
  Alcotest.(check (array int)) "jobs beyond length" (Array.map f items)
    (Sim.Pool.map ~jobs:64 f items)

let test_pool_propagates_exception () =
  List.iter
    (fun jobs ->
      let ran = Atomic.make 0 in
      let boom x =
        Atomic.incr ran;
        if x = 5 then failwith "boom" else x
      in
      (match Sim.Pool.map ~jobs boom (Array.init 20 Fun.id) with
      | _ -> Alcotest.fail "expected the worker's exception to re-raise"
      | exception Sim.Pool.Cell_error { cell; exn = Failure msg } ->
          Alcotest.(check string) "failing cell identified" "#5" cell;
          Alcotest.(check string) "original exception carried" "boom" msg
      | exception e ->
          Alcotest.failf "expected Cell_error, got %s" (Printexc.to_string e));
      (* one worker takes the items in order and stops at the failure *)
      if jobs = 1 then
        Alcotest.(check int) "no item after the failing one ran" 6
          (Atomic.get ran))
    [ 1; 4 ]

(* The tentpole gate: a same-seed campaign renders byte-identical reports
   and JSON whether it ran on one domain or four. *)
let test_campaign_parallel_equivalence () =
  let base =
    { (quick_config C.Srp) with C.duration = 40.0; nodes = 20; flows = 3 }
  in
  let campaign jobs =
    Sim.Experiment.run ~jobs ~pause_scale:1.0 ~base
      ~protocols:[ C.Srp; C.Aodv ]
      ~pauses:[ 0.0; 900.0 ] ~trials:2
      ~progress:(fun _ -> ()) ()
  in
  let seq = campaign 1 in
  Fixture.check_routes_traffic seq;
  let par = campaign 4 in
  Alcotest.(check int) "same engine event total"
    seq.Sim.Experiment.engine_events par.Sim.Experiment.engine_events;
  Alcotest.(check string) "report bytes identical"
    (Format.asprintf "%a" Sim.Report.all seq)
    (Format.asprintf "%a" Sim.Report.all par);
  Alcotest.(check string) "campaign JSON bytes identical"
    (Trace.Json.to_string (Sim.Report.campaign_json seq))
    (Trace.Json.to_string (Sim.Report.campaign_json par));
  (* Profiling is wall-clock side-state: even with spans enabled, the
     campaign envelope itself must not change by a byte (the profile is
     appended by the CLI layer, never by campaign_json). *)
  let profiled =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        Obs.enable ();
        campaign 4)
  in
  Alcotest.(check string) "profiled campaign JSON bytes identical"
    (Trace.Json.to_string (Sim.Report.campaign_json seq))
    (Trace.Json.to_string (Sim.Report.campaign_json profiled))

(* ------------------------------------------------------------------ *)
(* Supervisor: crash isolation, retry/backoff, timeout, fail-fast *)

let quick_policy =
  { Sim.Supervisor.default with Sim.Supervisor.backoff = 0.01 }

let sup_name x = Printf.sprintf "item-%d" x

let test_supervisor_retry_then_succeed () =
  let attempts_seen = Array.make 4 0 in
  let run ~attempt ~deadline:_ x =
    attempts_seen.(x) <- attempt;
    if x = 2 && attempt = 1 then failwith "flaky" else x * 10
  in
  let outcomes =
    Sim.Supervisor.map ~jobs:1 ~policy:quick_policy ~name:sup_name ~run
      (Array.init 4 Fun.id)
  in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Ok v -> Alcotest.(check int) (sup_name i ^ " result") (i * 10) v
      | Error _ -> Alcotest.failf "%s should have succeeded" (sup_name i))
    outcomes;
  Alcotest.(check int) "flaky cell retried once" 2 attempts_seen.(2);
  Alcotest.(check int) "healthy cell ran once" 1 attempts_seen.(1)

let test_supervisor_quarantines_persistent_crash () =
  let run ~attempt:_ ~deadline:_ x =
    if x = 1 then failwith "always broken" else x
  in
  let outcomes =
    Sim.Supervisor.map ~jobs:2 ~policy:quick_policy ~name:sup_name ~run
      (Array.init 3 Fun.id)
  in
  (match outcomes.(1) with
  | Error f ->
      Alcotest.(check int) "initial attempt + 1 retry" 2 f.Sim.Supervisor.attempts;
      Alcotest.(check bool) "not a timeout" false f.Sim.Supervisor.timed_out;
      Alcotest.(check bool) "error captured" true
        (f.Sim.Supervisor.error <> "")
  | Ok _ -> Alcotest.fail "persistently crashing cell must be quarantined");
  (match outcomes.(0) with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "sibling cells must be unaffected");
  match outcomes.(2) with
  | Ok 2 -> ()
  | _ -> Alcotest.fail "sibling cells must be unaffected"

let test_supervisor_times_out_hung_cell () =
  let policy =
    { quick_policy with Sim.Supervisor.cell_timeout = 0.2; retries = 0 }
  in
  let run ~attempt:_ ~deadline x =
    if x = 1 then
      (* a wedged event loop: only the cooperative deadline can stop it *)
      while true do
        Sim.Supervisor.check_deadline deadline;
        Unix.sleepf 0.002
      done;
    x
  in
  let outcomes =
    Sim.Supervisor.map ~jobs:1 ~policy ~name:sup_name ~run (Array.init 2 Fun.id)
  in
  (match outcomes.(1) with
  | Error f ->
      Alcotest.(check bool) "flagged as timeout" true f.Sim.Supervisor.timed_out;
      Alcotest.(check int) "no retries configured" 1 f.Sim.Supervisor.attempts
  | Ok _ -> Alcotest.fail "hung cell must time out");
  match outcomes.(0) with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "healthy cell unaffected by the sibling timeout"

let test_supervisor_fail_fast_reraises () =
  let run ~attempt:_ ~deadline:_ x =
    if x = 3 then failwith "boom" else x
  in
  match
    Sim.Supervisor.map ~jobs:1 ~policy:Sim.Supervisor.fail_fast ~name:sup_name
      ~run (Array.init 5 Fun.id)
  with
  | _ -> Alcotest.fail "fail-fast policy must re-raise"
  | exception Sim.Pool.Cell_error { cell; exn = Failure msg } ->
      Alcotest.(check string) "cell named" "item-3" cell;
      Alcotest.(check string) "original exception" "boom" msg
  | exception e ->
      Alcotest.failf "expected Cell_error, got %s" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Supervised campaigns: sabotage, quarantine reporting, resume *)

let sabotage_spec s =
  match Sim.Sabotage.of_string s with
  | Ok t -> t
  | Error m -> Alcotest.failf "bad sabotage spec in test: %s" m

let small_campaign_base () =
  { (quick_config C.Srp) with C.duration = 40.0; nodes = 20; flows = 3 }

let run_small_campaign ?policy ?checkpoint ?sabotage ~jobs () =
  Sim.Experiment.run ?policy ?checkpoint ?sabotage ~jobs ~pause_scale:1.0
    ~base:(small_campaign_base ())
    ~protocols:[ C.Srp; C.Aodv ]
    ~pauses:[ 0.0; 900.0 ] ~trials:2
    ~progress:(fun _ -> ())
    ()

let test_campaign_survives_sabotaged_cell () =
  let sabotage = sabotage_spec "crash:AODV:0:1" in
  let policy = { quick_policy with Sim.Supervisor.retries = 0 } in
  let campaign = run_small_campaign ~policy ~sabotage ~jobs:2 () in
  (match campaign.Sim.Experiment.failures with
  | [ (key, f) ] ->
      Alcotest.(check string) "protocol" "AODV"
        (C.protocol_name key.Sim.Experiment.protocol);
      Alcotest.(check (float 0.0)) "pause" 0.0 key.Sim.Experiment.pause;
      Alcotest.(check int) "trial" 1 key.Sim.Experiment.trial;
      Alcotest.(check bool) "crash, not timeout" false
        f.Sim.Supervisor.timed_out
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs));
  (* the quarantined cell contributes nothing to the aggregates *)
  let aodv0 = Sim.Experiment.cell campaign C.Aodv 0.0 in
  Alcotest.(check int) "one AODV pause-0 trial survives" 1
    (Stats.Summary.count aodv0.Sim.Experiment.delivery);
  let rendered = Format.asprintf "%a" Sim.Report.all campaign in
  let contains needle =
    let nl = String.length needle and hl = String.length rendered in
    let rec scan i = i + nl <= hl && (String.sub rendered i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "report announces the quarantine" true
    (contains "quarantined");
  match
    Trace.Json.member "failures" (Sim.Report.campaign_json campaign)
  with
  | Some (Trace.Json.List [ _ ]) -> ()
  | _ -> Alcotest.fail "campaign JSON must list the quarantined cell"

let test_campaign_sabotage_heals_on_retry () =
  (* the injected crash hits only attempt 1; one retry heals it, and the
     healed campaign is byte-identical to an unsabotaged one *)
  let sabotage = sabotage_spec "crash:SRP:0:0@1" in
  let clean = run_small_campaign ~jobs:1 () in
  let healed =
    run_small_campaign ~policy:quick_policy ~sabotage ~jobs:1 ()
  in
  Alcotest.(check bool) "no failures recorded" true
    (healed.Sim.Experiment.failures = []);
  Alcotest.(check string) "report bytes identical to a clean run"
    (Format.asprintf "%a" Sim.Report.all clean)
    (Format.asprintf "%a" Sim.Report.all healed)

let test_campaign_fail_fast_aborts () =
  let sabotage = sabotage_spec "crash:AODV:0:1" in
  match run_small_campaign ~sabotage ~jobs:2 () with
  | _ -> Alcotest.fail "default (fail-fast) policy must abort the campaign"
  | exception Sim.Pool.Cell_error _ -> ()

let campaign_fingerprint c =
  Format.asprintf "%a" Sim.Report.all c
  ^ Trace.Json.to_string (Sim.Report.campaign_json c)

let test_campaign_resume_equivalence () =
  let path = Filename.temp_file "manet_ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let straight = run_small_campaign ~jobs:1 () in
      Fixture.check_routes_traffic straight;
      let journaled = run_small_campaign ~checkpoint:path ~jobs:2 () in
      Alcotest.(check string) "journaled run matches straight-through"
        (campaign_fingerprint straight)
        (campaign_fingerprint journaled);
      (* truncate the journal to header + 3 cells + a torn fragment, as a
         kill mid-append would leave it *)
      let lines =
        In_channel.with_open_text path In_channel.input_lines
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int) "journal holds header + 8 cells" 9
        (List.length lines);
      let keep = List.filteri (fun i _ -> i < 4) lines in
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) keep;
          Out_channel.output_string oc "{\"cell\":{\"proto");
      let resumed = run_small_campaign ~checkpoint:path ~jobs:2 () in
      Alcotest.(check string) "resumed run byte-identical"
        (campaign_fingerprint straight)
        (campaign_fingerprint resumed);
      (* a fully journaled campaign restores without running anything *)
      let restored = run_small_campaign ~checkpoint:path ~jobs:1 () in
      Alcotest.(check string) "full restore byte-identical"
        (campaign_fingerprint straight)
        (campaign_fingerprint restored))

let test_campaign_resume_rejects_foreign_journal () =
  let path = Filename.temp_file "manet_ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (run_small_campaign ~checkpoint:path ~jobs:1 ());
      (* same journal, different campaign shape: must refuse, not graft *)
      match
        Sim.Experiment.run ~checkpoint:path ~jobs:1 ~pause_scale:1.0
          ~base:(small_campaign_base ())
          ~protocols:[ C.Srp ] ~pauses:[ 0.0 ] ~trials:1
          ~progress:(fun _ -> ())
          ()
      with
      | _ -> Alcotest.fail "foreign journal must raise Resume_error"
      | exception Sim.Experiment.Resume_error _ -> ())

(* A journal written under the previous schema is refused, not misread:
   rewritten as the v1 writer left it (a journal-v1 header whose config
   lacks the instance members, cell results without the label members),
   it no longer matches this campaign's header. *)
let test_campaign_resume_rejects_v1_journal () =
  let module J = Trace.Json in
  let path = Filename.temp_file "manet_ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (run_small_campaign ~checkpoint:path ~jobs:1 ());
      let without names = function
        | J.Obj members ->
            J.Obj (List.filter (fun (k, _) -> not (List.mem k names)) members)
        | json -> json
      in
      let as_v1 line =
        match J.parse line with
        | Ok (J.Obj members) ->
            J.to_string
              (J.Obj
                 (List.map
                    (fun (k, v) ->
                      match k with
                      | "schema" -> (k, J.String "manet-sim/journal-v1")
                      | "config" ->
                          ( k,
                            without
                              [ "labels"; "channel"; "mobility"; "traffic" ]
                              v )
                      | "result" ->
                          (k, without [ "label_width_bits"; "label_resets" ] v)
                      | _ -> (k, v))
                    members))
        | _ -> Alcotest.failf "journal line is not an object: %s" line
      in
      let lines =
        In_channel.with_open_text path In_channel.input_lines
        |> List.filter (fun l -> String.trim l <> "")
      in
      Out_channel.with_open_text path (fun oc ->
          List.iter
            (fun l -> Out_channel.output_string oc (as_v1 l ^ "\n"))
            lines);
      match run_small_campaign ~checkpoint:path ~jobs:1 () with
      | _ -> Alcotest.fail "a v1 journal must raise Resume_error"
      | exception Sim.Experiment.Resume_error m ->
          Alcotest.(check bool) "header mismatch reported" true
            (String.ends_with
               ~suffix:
                 "journal header does not match this campaign's \
                  configuration"
               m))

let test_config_presets () =
  Alcotest.(check int) "paper nodes" 100 C.paper.C.nodes;
  Alcotest.(check int) "paper flows" 30 C.paper.C.flows;
  Alcotest.(check (float 0.0)) "paper duration" 900.0 C.paper.C.duration;
  Alcotest.(check int) "reproduction scales flows" 12 C.reproduction.C.flows;
  Alcotest.(check int) "eight pause times" 8 (List.length C.paper_pause_times);
  Alcotest.(check (list string)) "all protocols named"
    [ "SRP"; "LDR"; "AODV"; "DSR"; "OLSR" ]
    (List.map C.protocol_name C.all_protocols)

let () =
  Alcotest.run "sim"
    [
      ( "traffic",
        [
          Alcotest.test_case "generation" `Quick test_cbr_generation;
          Alcotest.test_case "schedule" `Quick test_cbr_schedule_counts;
          Alcotest.test_case "deterministic" `Quick test_cbr_deterministic;
        ] );
      ( "metrics",
        [ Alcotest.test_case "accounting" `Quick test_metrics_accounting ] );
      ( "end-to-end",
        [
          Alcotest.test_case "SRP delivers" `Slow (test_protocol_delivers C.Srp);
          Alcotest.test_case "LDR delivers" `Slow (test_protocol_delivers C.Ldr);
          Alcotest.test_case "AODV delivers" `Slow (test_protocol_delivers C.Aodv);
          Alcotest.test_case "DSR delivers" `Slow (test_protocol_delivers C.Dsr);
          Alcotest.test_case "OLSR delivers" `Slow (test_protocol_delivers C.Olsr);
          Alcotest.test_case "deterministic runs" `Slow test_run_deterministic;
          Alcotest.test_case "seed sensitivity" `Slow test_seed_changes_outcome;
          Alcotest.test_case "SRP zero seqno" `Slow test_srp_zero_seqno_static;
          Alcotest.test_case "Farey-split variant (§VI)" `Slow
            test_srp_farey_splits_variant;
          Alcotest.test_case "grid channel matches naive" `Slow
            test_grid_matches_naive;
        ] );
      ( "loop-freedom",
        [
          Alcotest.test_case "static network" `Slow test_srp_loop_free_static;
          Alcotest.test_case "constant mobility" `Slow test_srp_loop_free_mobile;
          Alcotest.test_case "mobility, extra seeds" `Slow
            test_srp_loop_free_mobile_seeds;
          Alcotest.test_case "Farey-split variant stays loop-free" `Slow
            test_srp_farey_loop_free;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "experiment + report" `Slow test_campaign_and_report;
          Alcotest.test_case "config presets" `Quick test_config_presets;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "pool preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "pool re-raises worker errors" `Quick
            test_pool_propagates_exception;
          Alcotest.test_case "-j 4 campaign byte-identical to -j 1" `Slow
            test_campaign_parallel_equivalence;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "crash retries then succeeds" `Quick
            test_supervisor_retry_then_succeed;
          Alcotest.test_case "persistent crash quarantined" `Quick
            test_supervisor_quarantines_persistent_crash;
          Alcotest.test_case "hung cell times out" `Quick
            test_supervisor_times_out_hung_cell;
          Alcotest.test_case "fail-fast re-raises" `Quick
            test_supervisor_fail_fast_reraises;
          Alcotest.test_case "sabotaged campaign completes" `Slow
            test_campaign_survives_sabotaged_cell;
          Alcotest.test_case "sabotage heals on retry" `Slow
            test_campaign_sabotage_heals_on_retry;
          Alcotest.test_case "fail-fast campaign aborts" `Slow
            test_campaign_fail_fast_aborts;
          Alcotest.test_case "resume byte-identical" `Slow
            test_campaign_resume_equivalence;
          Alcotest.test_case "foreign journal rejected" `Slow
            test_campaign_resume_rejects_foreign_journal;
          Alcotest.test_case "v1 journal rejected" `Slow
            test_campaign_resume_rejects_v1_journal;
        ] );
    ]
