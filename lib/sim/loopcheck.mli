(** Runtime verification of SRP's loop-freedom (Theorem 3).

    [run config ~interval] executes a simulation with white-box SRP agents
    and, every [interval] simulated seconds, asserts for every destination
    that (a) every live successor edge descends in the Ordering Criteria
    sense — [O_A ⊑ O_B] for each successor B of A — and (b) the global
    successor graph is acyclic ({!Slr.Dag.check_graph}).

    Returns [Ok (metrics, sweeps, edges)] — the run's metrics, the number
    of whole-network invariant sweeps, and the total successor edges
    inspected — or [Error description] on the first violation. *)
val run :
  Config.t -> interval:float -> (Metrics.result * int * int, string) result

(** Online variant for faulted runs: the invariant is asserted at every
    route-table mutation ({!Protocols.Srp.on_route_change}) against the
    *stored* successor orderings — the labels the successors advertised when
    the edges were engaged — and destinations touched since the last tick
    get an amortized global pass (every [interval] seconds) that re-checks
    every live node plus successor-graph acyclicity. Stored orderings are
    the right reference under crash faults: a rebooted successor's current
    label regresses to unassigned, which would make current-label
    comparisons (as {!run} does on fault-free runs) fire spuriously while
    the routing invariant actually holds. Crashed nodes are skipped in
    global passes via {!Faults.Injector.node_up}.

    Returns [Ok (metrics, checks, edges)] — the run's metrics, invariant
    evaluations performed, and successor edges inspected — or
    [Error description] on the first violation. *)
val run_online :
  Config.t -> interval:float -> (Metrics.result * int * int, string) result
