(** Successor graphs toward one destination, and the loop-freedom verdict
    of Theorem 3 over them. Nodes are integers in [0, n).

    {!check_node} is the per-edge condition at one node, {!check_graph}
    the whole-graph verdict: every node's condition, then {!acyclic}. Both
    take the successor orderings as given, so the caller decides whether
    they are the successors' current orderings or the ones stored when the
    edges were engaged. Error messages name the nodes involved; callers
    watching several destinations prefix the destination. *)

(** [acyclic ~successors n] is [Ok ()] when the directed graph has no cycle,
    or [Error cycle] with a witness cycle (first node repeated at the end). *)
val acyclic : successors:(int -> int list) -> int -> (unit, int list) result

(** [check_node ~node order succs] holds when [order] strictly precedes
    every successor ordering in [succs] ([order ⊑ o], Definition 5).
    [Error] names [node] and the first offending successor. *)
val check_node :
  node:int -> Ordering.t -> (int * Ordering.t) list -> (unit, string) result

(** [check_graph n state] runs {!check_node} on every node [i] for which
    [state i] is [Some (order, succs)], in increasing [i], then checks
    that the graph of those successor edges is acyclic. Nodes mapped to
    [None] have no out-edges. [state] is called at most once per node,
    and not after the first failing node. *)
val check_graph :
  int ->
  (int -> (Ordering.t * (int * Ordering.t) list) option) ->
  (unit, string) result
