(** Model-based differential oracle for SRP: an abstract mirror of the
    label-order semantics of Definition 1 / Theorems 1–4 over an explicit
    node set, fed with white-box snapshots of a running SRP network.

    The full message-passing protocol reports every route-table mutation as
    a {!snapshot} (the node's current ordering plus its stored successor
    orderings for one destination); the model independently re-checks the
    paper's invariants against its own recorded history:

    - {b Ordering Criteria} (Definition 5 / Theorem 3): the node's ordering
      strictly precedes every stored successor ordering — [O_A ⊑ O_B] for
      each engaged successor B;
    - {b label monotonicity} (Eq. 3): between two finite orderings of the
      same node the sequence number never decreases, and at an unchanged
      sequence number the fraction never grows. Transitions through the
      unassigned label (route expiry / fresh state) are legal in either
      direction — DELETE_PERIOD, not the order structure, guards those;
    - {b acyclicity} (Theorem 3): the per-destination successor graph,
      rebuilt from the snapshots alone, has no cycle.

    The first and last are {!Slr.Dag.check_graph} over the mirrored
    snapshots, the same verdict [Sim.Loopcheck] applies to live state.

    The model never reads protocol state directly, so a bookkeeping bug in
    SRP cannot hide itself from the oracle. *)

type t

val create : nodes:int -> t

type snapshot = {
  node : int;
  dst : int;
  order : Slr.Ordering.t;  (** the node's current ordering for [dst] *)
  succs : (int * Slr.Ordering.t) list;
      (** engaged successors with the orderings recorded at adoption *)
}

(** Check one mutation against the model and record it. [Error] carries a
    human-readable description of the violated invariant. *)
val observe : t -> snapshot -> (unit, string) result

(** Total snapshots checked. *)
val observations : t -> int
