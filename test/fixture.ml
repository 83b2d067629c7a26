(* Shared by the suites: a fixture proves something only if its worlds
   route data, and a catalogue property runs as an alcotest case. *)

(* Every cell delivers packets, and SRP adopts a split label (its maximum
   denominator starts at 1). *)
let check_routes_traffic (t : Sim.Experiment.t) =
  List.iter
    (fun protocol ->
      List.iter
        (fun pause ->
          let c = Sim.Experiment.cell t protocol pause in
          Alcotest.(check bool)
            (Printf.sprintf "%s pause %g delivers"
               (Sim.Config.protocol_name protocol)
               pause)
            true
            (Stats.Summary.mean c.Sim.Experiment.delivery > 0.0))
        t.Sim.Experiment.pauses)
    t.Sim.Experiment.protocols;
  let max_denominator =
    List.fold_left
      (fun acc pause ->
        Stdlib.max acc
          (Sim.Experiment.cell t Sim.Config.Srp pause)
            .Sim.Experiment.max_denominator)
      0 t.Sim.Experiment.pauses
  in
  Alcotest.(check bool) "SRP max denominator above 1" true
    (max_denominator > 1)

(* The named case runs catalogue property [prop] at `manet_sim fuzz`'s
   default seed and budget, so a failure reports the shrunk counterexample
   and the replay line that reproduces it. Several cases may name the one
   property that states all their laws. *)
let catalogue_case name prop =
  Alcotest.test_case name `Quick (fun () ->
      match
        Check.Runner.run_suite ~seed:42 ~max_cases:100 ~only:prop
          Check.Props.all
      with
      | [ (_, Check.Runner.Pass _) ] -> ()
      | [ (name, outcome) ] -> Alcotest.fail (Check.Runner.report outcome ~name)
      | _ -> Alcotest.failf "no catalogue property %s" prop)
