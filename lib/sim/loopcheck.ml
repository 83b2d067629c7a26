let span_check = Obs.span "event.loopcheck"

exception Violation of string

let require ~dst = function
  | Ok () -> ()
  | Error m -> raise (Violation (Printf.sprintf "dst %d: %s" dst m))

let run (config : Config.t) ~interval =
  if config.protocol <> Config.Srp then
    invalid_arg "Loopcheck.run: only SRP exposes label state";
  let nodes = config.nodes in
  let srps : Protocols.Srp.t option array = Array.make nodes None in
  let sweeps = ref 0 in
  let edges = ref 0 in
  (* one whole-network invariant sweep: every destination's successor
     graph must descend in the successors' current orderings and be
     acyclic *)
  let sweep () =
    incr sweeps;
    let srp i = Option.get srps.(i) in
    for dst = 0 to nodes - 1 do
      let state a =
        if a = dst then None
        else begin
          let own = Protocols.Srp.ordering (srp a) ~dst in
          let succs = Protocols.Srp.successor_orderings (srp a) ~dst in
          edges := !edges + List.length succs;
          let current (b, _) = (b, Protocols.Srp.ordering (srp b) ~dst) in
          Some (own, List.map current succs)
        end
      in
      require ~dst (Slr.Dag.check_graph nodes state)
    done
  in
  try
    let result =
      Runner.run_custom config
        ~build:(fun i ctx ->
          let t, agent = Protocols.Srp.create_full ~config:config.srp ctx in
          srps.(i) <- Some t;
          agent)
        ~on_start:(fun engine ->
          let rec tick time =
            if time < config.duration then
              ignore
                (Des.Engine.schedule_at ~span:span_check engine ~time (fun () ->
                     sweep ();
                     tick (time +. interval)))
          in
          tick interval)
    in
    Ok (result, !sweeps, !edges)
  with Violation message -> Error message

(* The online monitor asserts the invariant the moment a route table
   mutates, not on a sampling clock. It deliberately checks each node's
   *stored* successor orderings (the labels the successors advertised at
   engagement time) rather than their current ones: under crash faults a
   rebooted successor regresses to the unassigned label, which makes
   current-label comparisons fire spuriously even though the Ordering
   Criteria — and acyclicity, which we still verify globally — hold. *)
let run_online (config : Config.t) ~interval =
  if config.protocol <> Config.Srp then
    invalid_arg "Loopcheck.run_online: only SRP exposes label state";
  let nodes = config.nodes in
  let srps : Protocols.Srp.t option array = Array.make nodes None in
  let node_up = ref (fun _ -> true) in
  let checks = ref 0 in
  let edges = ref 0 in
  (* destinations whose graph mutated since the last amortized global pass *)
  let dirty : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let srp i = Option.get srps.(i) in
  (* a live node's orderings: its own, then its stored successor orderings
     for [dst] (Theorem 3's per-edge condition compares the two) *)
  let state a ~dst =
    incr checks;
    (* [ordering] before [successor_orderings]: both may expire route
       state, so their order decides what each returns *)
    let own = Protocols.Srp.ordering (srp a) ~dst in
    let succs = Protocols.Srp.successor_orderings (srp a) ~dst in
    edges := !edges + List.length succs;
    (own, succs)
  in
  (* the local invariant at [a], checked the moment its table mutates *)
  let local_check a ~dst =
    let own, succs = state a ~dst in
    require ~dst (Slr.Dag.check_node ~node:a own succs)
  in
  (* the global pass for one destination: every live node's local invariant
     plus acyclicity of the whole successor graph *)
  let sweep_dst dst =
    require ~dst
      (Slr.Dag.check_graph nodes (fun a ->
           if a <> dst && !node_up a then Some (state a ~dst) else None))
  in
  try
    let result =
      Runner.run_custom config
        ~on_faults:(fun injector ->
          node_up := Faults.Injector.node_up injector)
        ~build:(fun i ctx ->
          let t, agent = Protocols.Srp.create_full ~config:config.srp ctx in
          srps.(i) <- Some t;
          Protocols.Srp.on_route_change t (fun dst ->
              (* fires on crashed incarnations too (expiry timers survive
                 the swap); their state is frozen, so the check stays true *)
              (match srps.(i) with
              | Some current when current == t -> local_check i ~dst
              | _ -> ());
              Hashtbl.replace dirty dst ());
          agent)
        ~on_start:(fun engine ->
          let rec tick time =
            if time < config.duration then
              ignore
                (Des.Engine.schedule_at ~span:span_check engine ~time (fun () ->
                     let dsts =
                       List.sort compare
                         (Hashtbl.fold (fun d () acc -> d :: acc) dirty [])
                     in
                     Hashtbl.reset dirty;
                     List.iter sweep_dst dsts;
                     tick (time +. interval)))
          in
          tick interval)
    in
    Ok (result, !checks, !edges)
  with Violation message -> Error message
