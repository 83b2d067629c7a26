(** An abstract, message-less executor for SLR route computations over a
    static graph (paper §II): request floods breadth-first, a reply walks the
    reverse path, and each node relabels with Algorithm 1
    ({!New_order.compute_with}) over any {!Label.S}.

    Every node holds one {!Ordering.t} toward a single destination at a
    single sequence number: the destination [(1, zero)], every other node
    unassigned [(0, one)] until a reply labels it.

    This is the idealised protocol used to state Theorems 1–4; the full
    message-passing implementation with losses and mobility is SRP
    (see [Protocols.Srp]). The executor reproduces the paper's Examples 1–2
    exactly and backs the loop-freedom property tests. *)

type t

(** [create ~labels ~nodes ~dest] — all nodes unassigned except [dest],
    which holds the destination ordering. No links, no successor paths. *)
val create : labels:(module Label.S) -> nodes:int -> dest:int -> t

(** Bidirectional link. Self-links are rejected. *)
val add_link : t -> int -> int -> unit

val linked : t -> int -> int -> bool

(** The node's current label (the unassigned one until a reply reaches it). *)
val label : t -> int -> Label.t

(** Successor entries with the advertised ordering recorded at adoption. *)
val successors : t -> int -> (int * Ordering.t) list

(** A node has an active route iff its successor set is non-empty. *)
val has_route : t -> int -> bool

type outcome =
  | Routed of { replier : int; reply_path : int list }
      (** [reply_path] runs from the replier to the requester inclusive. *)
  | No_route  (** the flood reached no node able to reply *)
  | Label_exhausted of int
      (** Algorithm 1 returned the infinite ordering at this node — for a
          bounded label set, SRP's cue for a sequence-number path reset *)

(** [request t ~src] runs one route computation for [src] toward the
    destination. No-op ([Routed] with an empty path) when [src] is the
    destination itself. *)
val request : t -> src:int -> outcome

(** [break_link t a b] removes the link and both nodes' successor entries
    through it. *)
val break_link : t -> int -> int -> unit

(** [seed_label t i l] forces a node's label at the destination's sequence
    number, bypassing the protocol — for tests and demos that re-create the
    paper's figures, where nodes "once knew a route" and carry stale labels.
    Never use it mid-request. *)
val seed_label : t -> int -> Label.t -> unit

(** Theorem 3 ({!Dag.check_graph}): every node's ordering strictly precedes
    its successors' current orderings, and the successor graph is
    acyclic. *)
val check_invariants : t -> (unit, string) result

(** Follow least-label successors from [src]; [None] when no route. For
    demos and tests. *)
val route_to_dest : t -> src:int -> int list option
