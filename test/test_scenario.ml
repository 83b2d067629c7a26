(* Scenario registry: round-trip and apply semantics, per-scenario seed
   determinism (byte-identical JSONL traces), the adversarial van Glabbeek
   replay (AODV loops, SRP stays green), and catalogue presence of the
   per-model fuzz properties. test/cram/campaign_default.t holds the
   default scenario to the committed campaign golden. *)

module C = Sim.Config
module Sc = Sim.Scenario

let workload_scenarios = List.filter (fun sc -> not (Sc.is_adversarial sc)) Sc.all
let scenario name = Option.get (Sc.find name)

(* ------------------------------------------------------------------ *)
(* Registry round-trip *)

let test_registry () =
  Alcotest.(check bool) "at least the issue's scenarios registered" true
    (List.length Sc.all >= 10);
  Alcotest.(check string) "default entry first" "default" Sc.default.Sc.name;
  List.iter
    (fun sc ->
      match Sc.find sc.Sc.name with
      | Some found ->
          Alcotest.(check string) "find round-trips" sc.Sc.name found.Sc.name
      | None -> Alcotest.failf "find %S returned None" sc.Sc.name)
    Sc.all;
  Alcotest.(check (list string))
    "names lists the registry in order"
    (List.map (fun sc -> sc.Sc.name) Sc.all)
    Sc.names;
  Alcotest.(check bool) "unknown name rejected" true (Sc.find "no-such" = None);
  Alcotest.(check int) "exactly one adversarial entry" 1
    (List.length (List.filter Sc.is_adversarial Sc.all))

let test_apply () =
  let base = C.reproduction in
  Alcotest.(check string)
    "default scenario leaves the config byte-identical"
    (Trace.Json.to_string (C.to_json base))
    (Trace.Json.to_string (C.to_json (Sc.apply Sc.default base)));
  let downtown = Sc.apply (scenario "downtown") base in
  Alcotest.(check string) "downtown drives the manhattan grid" "manhattan"
    (Wireless.Mobility.name downtown.C.mobility);
  Alcotest.(check string) "downtown carries bursty traffic" "bursty"
    (Traffic.Model.name downtown.C.traffic);
  let hostile = Sc.apply (scenario "hostile") base in
  Alcotest.(check bool) "hostile arms its fault plan" false
    (Faults.Spec.is_none hostile.C.faults);
  (* an explicitly configured fault spec must win over the scenario plan *)
  let explicit = { Faults.Spec.default with Faults.Spec.crashes = 9 } in
  let kept = Sc.apply (scenario "hostile") { base with C.faults = explicit } in
  Alcotest.(check int) "explicit faults take precedence" 9
    kept.C.faults.Faults.Spec.crashes;
  match Sc.apply (scenario "vg-forged-rrep") base with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "apply on the adversarial entry must raise"

(* ------------------------------------------------------------------ *)
(* Per-scenario seed determinism: same seed, same bytes — report and the
   full JSONL event trace alike. *)

let small_base seed =
  {
    C.reproduction with
    C.nodes = 14;
    terrain = Wireless.Terrain.make ~width:600.0 ~height:300.0;
    duration = 22.0;
    flows = 2;
    pause = 1.0;
    seed;
  }

let run_with_trace config =
  let path = Filename.temp_file "scenario" ".jsonl" in
  let oc = open_out path in
  let trace = Trace.jsonl ~clock:(fun () -> 0.0) oc in
  let result =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Sim.Runner.run ~trace config)
  in
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (Format.asprintf "%a" Sim.Report.run result, bytes)

let test_scenario_determinism sc () =
  let config = Sc.apply sc (small_base 5) in
  let report1, trace1 = run_with_trace config in
  let report2, trace2 = run_with_trace config in
  Alcotest.(check string) "report byte-identical" report1 report2;
  Alcotest.(check bool) "JSONL trace byte-identical" true (trace1 = trace2);
  Alcotest.(check bool) "trace non-empty" true (String.length trace1 > 0)

(* the determinism check is not vacuous: a different seed moves the trace *)
let test_seed_moves_trace () =
  let sc = Sc.default in
  let _, trace5 = run_with_trace (Sc.apply sc (small_base 5)) in
  let _, trace6 = run_with_trace (Sc.apply sc (small_base 6)) in
  Alcotest.(check bool) "different seed, different trace" false
    (trace5 = trace6)

(* ------------------------------------------------------------------ *)
(* Adversarial replay: the van Glabbeek counterexample plus a forged
   stale advertisement must catch AODV looping while SRP stays green. *)

let test_adversarial_verdicts () =
  let verdicts = Sc.run_adversarial_all () in
  Alcotest.(check int) "one verdict per protocol" 5 (List.length verdicts);
  let verdict p = List.find (fun v -> v.Sc.vprotocol = p) verdicts in
  Alcotest.(check bool) "AODV caught looping" true
    (Sc.loop_detected (verdict C.Aodv));
  Alcotest.(check bool) "AODV online monitor fired" true
    (verdict C.Aodv).Sc.flagged;
  Alcotest.(check bool) "SRP stays loop-free under the forgery" false
    (Sc.loop_detected (verdict C.Srp));
  let render vs = List.map (Format.asprintf "%a" Sc.pp_verdict) vs in
  Alcotest.(check (list string)) "replay is deterministic" (render verdicts)
    (render (Sc.run_adversarial_all ()))

(* ------------------------------------------------------------------ *)
(* The per-model fuzz properties ride in the shrinking catalogue. *)

let model_props =
  [
    "mobility-positions";
    "manhattan-on-streets";
    "rpgm-group-radius";
    "churn-relocations";
    "waypoint-degenerate";
    "mobility-deterministic";
    "traffic-deterministic";
    "convergecast-sink-conserves";
    "bursty-envelope";
    "flash-crowd-arrival";
  ]

let test_catalogue_registered () =
  let names =
    List.map
      (fun (Check.Runner.Packed c) -> c.Check.Runner.name)
      Check.Props.all
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " in the catalogue") true (List.mem n names))
    model_props

let test_catalogue_passes () =
  let cells =
    List.filter
      (fun (Check.Runner.Packed c) ->
        List.mem c.Check.Runner.name model_props)
      Check.Props.all
  in
  Alcotest.(check int) "all ten cells selected" (List.length model_props)
    (List.length cells);
  let outcomes =
    Check.Runner.run_suite ~map:List.map ~seed:11 ~max_cases:10 cells
  in
  List.iter
    (fun (name, outcome) ->
      match outcome with
      | Check.Runner.Pass _ -> ()
      | Check.Runner.Fail _ ->
          Alcotest.failf "%s failed at seed 11" name)
    outcomes

let () =
  Alcotest.run "scenario"
    [
      ( "registry",
        [
          Alcotest.test_case "round-trip" `Quick test_registry;
          Alcotest.test_case "apply semantics" `Quick test_apply;
        ] );
      ( "determinism",
        Alcotest.test_case "seed moves the trace" `Quick test_seed_moves_trace
        :: List.map
             (fun sc ->
               Alcotest.test_case
                 (sc.Sc.name ^ " byte-deterministic")
                 `Slow
                 (test_scenario_determinism sc))
             workload_scenarios );
      ( "adversarial",
        [
          Alcotest.test_case "AODV loops, SRP green" `Slow
            test_adversarial_verdicts;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "model properties registered" `Quick
            test_catalogue_registered;
          Alcotest.test_case "model properties pass" `Slow
            test_catalogue_passes;
        ] );
    ]
