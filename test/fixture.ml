(* Shared by the determinism tests: a fixture proves something only if its
   worlds route data. *)

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
