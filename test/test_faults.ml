(* Fault-injection subsystem: deterministic planning, injector semantics,
   and the robustness regressions — delivery recovers from a flapped relay
   link, and same seed + same fault schedule reproduces the run byte for
   byte. *)

module C = Sim.Config
module Spec = Faults.Spec
module Injector = Faults.Injector

let base_config =
  {
    C.small with
    protocol = C.Srp;
    nodes = 30;
    terrain = Wireless.Terrain.make ~width:900.0 ~height:300.0;
    duration = 40.0;
    flows = 4;
    pause = 900.0;
    seed = 3;
  }

(* ------------------------------------------------------------------ *)
(* Spec *)

let test_plan_deterministic () =
  let plan () =
    Spec.plan Spec.default
      ~rng:(Des.Rng.split (Des.Rng.create 7L) "faults")
      ~nodes:50 ~duration:120.0
  in
  let a = plan () and b = plan () in
  Alcotest.(check bool) "same rng, same plan" true (a = b);
  Alcotest.(check bool) "non-empty" true (a <> []);
  let rec sorted = function
    | x :: (y :: _ as rest) -> x.Spec.at <= y.Spec.at && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "time-sorted" true (sorted a);
  (* every down-type event has its paired up-type event *)
  let count p = List.length (List.filter (fun t -> p t.Spec.ev) a) in
  Alcotest.(check int) "flaps paired"
    (count (function Spec.Link_down _ -> true | _ -> false))
    (count (function Spec.Link_up _ -> true | _ -> false));
  Alcotest.(check int) "crashes paired"
    (count (function Spec.Crash _ -> true | _ -> false))
    (count (function Spec.Restart _ -> true | _ -> false));
  Alcotest.(check int) "two crashes"
    2
    (count (function Spec.Crash _ -> true | _ -> false))

(* ------------------------------------------------------------------ *)
(* Injector *)

let test_injector_semantics () =
  let engine = Des.Engine.create () in
  let crashed = ref [] and restarted = ref [] in
  let plan =
    [
      { Spec.at = 1.0; ev = Spec.Link_down { la = 2; lb = 3 } };
      { Spec.at = 2.0; ev = Spec.Crash { node = 4 } };
      { Spec.at = 3.0; ev = Spec.Link_up { la = 3; lb = 2 } };
      { Spec.at = 4.0; ev = Spec.Restart { node = 4 } };
    ]
  in
  let inj =
    Injector.create engine ~nodes:8
      ~rng:(Des.Rng.create 1L)
      ~plan
      ~on_crash:(fun i -> crashed := i :: !crashed)
      ~on_restart:(fun i -> restarted := i :: !restarted)
  in
  let check_at time f =
    ignore (Des.Engine.schedule_at engine ~time (fun () -> f ()))
  in
  check_at 0.5 (fun () ->
      Alcotest.(check bool) "link up before flap" true
        (Injector.frame_ok inj ~src:2 ~dst:3));
  check_at 1.5 (fun () ->
      Alcotest.(check bool) "flapped link blocked" false
        (Injector.frame_ok inj ~src:2 ~dst:3);
      (* direction-agnostic *)
      Alcotest.(check bool) "reverse blocked too" false
        (Injector.frame_ok inj ~src:3 ~dst:2);
      Alcotest.(check bool) "other links unaffected" true
        (Injector.frame_ok inj ~src:1 ~dst:2));
  check_at 2.5 (fun () ->
      Alcotest.(check bool) "crashed node deaf" false
        (Injector.frame_ok inj ~src:1 ~dst:4);
      Alcotest.(check bool) "crashed node mute" false
        (Injector.frame_ok inj ~src:4 ~dst:1);
      Alcotest.(check bool) "node_up reports down" false (Injector.node_up inj 4));
  check_at 3.5 (fun () ->
      Alcotest.(check bool) "link healed" true
        (Injector.frame_ok inj ~src:2 ~dst:3));
  check_at 4.5 (fun () ->
      Alcotest.(check bool) "node back" true (Injector.node_up inj 4);
      Alcotest.(check bool) "frames flow again" true
        (Injector.frame_ok inj ~src:1 ~dst:4));
  Des.Engine.run engine ~until:5.0;
  Alcotest.(check (list int)) "on_crash fired" [ 4 ] !crashed;
  Alcotest.(check (list int)) "on_restart fired" [ 4 ] !restarted;
  Alcotest.(check int) "all events applied" 4 (Injector.event_count inj);
  Alcotest.(check bool) "blocked frames counted" true
    (Injector.frames_blocked inj > 0)

(* Flaps that nest on one link or share a node, and a link-up for a link
   that is not down: an unflapped pair through a flapped node passes, and
   each link stays blocked until its last flap heals. *)
let test_overlapping_flaps () =
  let engine = Des.Engine.create () in
  let down at la lb = { Spec.at; ev = Spec.Link_down { la; lb } } in
  let up at la lb = { Spec.at; ev = Spec.Link_up { la; lb } } in
  let plan =
    [ down 1.0 2 3; down 1.0 2 5; down 1.0 3 2; up 2.0 2 3; up 2.2 2 6;
      up 3.0 5 2; up 4.0 2 3 ]
  in
  let inj =
    Injector.create engine ~nodes:8 ~rng:(Des.Rng.create 1L) ~plan
      ~on_crash:ignore ~on_restart:ignore
  in
  let expect time frames =
    ignore
      (Des.Engine.schedule_at engine ~time (fun () ->
           List.iter
             (fun (src, dst, ok) ->
               Alcotest.(check bool)
                 (Printf.sprintf "t=%g %d->%d" time src dst)
                 ok
                 (Injector.frame_ok inj ~src ~dst))
             frames))
  in
  expect 1.5 [ (2, 3, false); (3, 2, false); (5, 2, false); (3, 5, true) ];
  expect 2.5 [ (2, 3, false); (2, 5, false); (2, 6, true); (5, 3, true) ];
  expect 3.5 [ (3, 2, false); (2, 5, true); (5, 2, true) ];
  expect 4.5 [ (2, 3, true); (3, 2, true) ];
  Des.Engine.run engine ~until:5.0;
  Alcotest.(check int) "blocked frames counted" 6
    (Injector.frames_blocked inj)

(* ------------------------------------------------------------------ *)
(* Robustness regressions *)

(* Flap the first flow's relay link mid-flow (found from a clean white-box
   run over the identical seed; the topology is static at pause 900) and
   assert delivery recovers through rediscovery while the online monitor
   stays silent. *)
let test_relay_flap_recovery () =
  let config = base_config in
  (* the first flow, exactly as the runner will schedule it *)
  let root = Des.Rng.create (Int64.of_int config.C.seed) in
  let flow =
    List.hd
      (Traffic.Cbr.generate
         ~rng:(Des.Rng.split root "traffic")
         ~nodes:config.C.nodes ~concurrent:config.C.flows
         ~from_time:config.C.traffic_start ~until:config.C.duration
         ~mean_duration:config.C.flow_mean_duration)
  in
  let src = flow.Traffic.Cbr.src and dst = flow.Traffic.Cbr.dst in
  (* clean run with white-box agents to learn src's relay toward dst *)
  let srps : Protocols.Srp.t option array = Array.make config.C.nodes None in
  ignore
    (Sim.Runner.run_custom config
       ~build:(fun i ctx ->
         let t, agent = Protocols.Srp.create_full ~config:config.C.srp ctx in
         srps.(i) <- Some t;
         agent)
       ~on_start:(fun _ -> ()));
  let relay =
    match Protocols.Srp.successor_orderings (Option.get srps.(src)) ~dst with
    | (b, _) :: _ -> b
    | [] -> dst (* no live successor at run end: flap the direct link *)
  in
  let faults =
    {
      Spec.none with
      extra =
        [
          { Spec.at = 20.0; ev = Spec.Link_down { la = src; lb = relay } };
          { Spec.at = 28.0; ev = Spec.Link_up { la = src; lb = relay } };
        ];
    }
  in
  match Sim.Loopcheck.run_online { config with faults } ~interval:0.25 with
  | Error message -> Alcotest.failf "loop invariant violated: %s" message
  | Ok (result, checks, _) ->
      Alcotest.(check bool) "monitor exercised" true (checks > 0);
      Alcotest.(check int) "both flap events injected" 2
        result.Sim.Metrics.fault_events;
      Alcotest.(check bool)
        (Printf.sprintf "delivery recovers (got %.3f)"
           result.Sim.Metrics.delivery_ratio)
        true
        (result.Sim.Metrics.delivery_ratio >= 0.85)

(* Same seed + same fault schedule must reproduce the full report byte for
   byte — flaps, crashes and loss bursts all ride deterministic RNG
   substreams. *)
let test_faulted_run_deterministic () =
  let config =
    {
      base_config with
      faults = { Spec.default with flap_rate = 0.3; burst_rate = 0.02 };
    }
  in
  let render () =
    let result = Sim.Runner.run config in
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    Sim.Report.run ppf result;
    Format.pp_print_flush ppf ();
    (result, Buffer.contents buf)
  in
  let a, text_a = render () in
  let b, text_b = render () in
  Alcotest.(check string) "byte-identical report" text_a text_b;
  Alcotest.(check int) "same delivered" a.Sim.Metrics.delivered
    b.Sim.Metrics.delivered;
  Alcotest.(check bool) "faults actually injected" true
    (a.Sim.Metrics.fault_events > 0);
  Alcotest.(check bool) "frames were blocked" true
    (a.Sim.Metrics.fault_frames_blocked > 0)

(* Crashes under the online monitor: the acceptance scenario scaled down.
   Two reboots mid-run, zero violations, nonzero recovery series. *)
let test_crashes_online_monitor () =
  let config =
    {
      base_config with
      duration = 60.0;
      faults = { Spec.none with crashes = 2; crash_down_mean = 12.0 };
    }
  in
  match Sim.Loopcheck.run_online config ~interval:0.25 with
  | Error message -> Alcotest.failf "loop invariant violated: %s" message
  | Ok (result, _, _) ->
      Alcotest.(check bool) "crash events injected" true
        (result.Sim.Metrics.fault_events >= 2);
      Alcotest.(check bool) "still delivering" true
        (result.Sim.Metrics.delivery_ratio >= 0.5)

let () =
  Alcotest.run "faults"
    [
      ( "spec",
        [ Alcotest.test_case "plan deterministic + paired" `Quick
            test_plan_deterministic ] );
      ( "injector",
        [
          Alcotest.test_case "event semantics" `Quick test_injector_semantics;
          Alcotest.test_case "overlapping flaps" `Quick test_overlapping_flaps;
        ]
      );
      ( "robustness",
        [
          Alcotest.test_case "relay link flap: delivery recovers" `Quick
            test_relay_flap_recovery;
          Alcotest.test_case "faulted run deterministic" `Quick
            test_faulted_run_deterministic;
          Alcotest.test_case "crashes under online monitor" `Quick
            test_crashes_online_monitor;
        ] );
    ]
