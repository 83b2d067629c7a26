(** Algorithm 1 of the paper: NEWORDER — compute a node's new label from a
    feasible advertisement and the cached minimum predecessor ordering of the
    corresponding solicitation.

    Inputs (paper notation): [current] is [O_A^T], [cached] is [C_A^?] (use
    {!Ordering.unassigned} when there is no cached solicitation — RREQ/Hello
    advertisements or the terminus of a RREP), [adv] is [O_?^T].

    The result either maintains order (Theorem 6) or is the infinite
    ordering [(0, (1,1))], which the caller must treat as "drop the
    advertisement" (Procedure 3). Every finite result is checked against
    Eqs. 3–5 of Definition 1 ([g <= current], [g] strictly below the
    cached solicitation minimum, strictly above the advertisement) before
    it is returned, so Theorem 6 holds for {e arbitrary} inputs, not just
    ones satisfying Lemma 1's protocol invariants (stale or reordered
    packets violate them). *)

(** Outcome of NEWORDER, plus which line of Algorithm 1 produced it
    (exposed so tests can pin the case analysis of Theorem 6). *)
type result = {
  order : Ordering.t;  (** the new label [G_A^T]; infinite when rejected *)
  case : case;
}

and case =
  | Infinite  (** line 2 falls through: stale seqno or fraction overflow *)
  | Fresher_next  (** line 5: [adv + 1/1], both seqnos below [adv]'s *)
  | Fresher_split  (** line 7: split cached fraction with [adv]'s *)
  | Keep_current  (** line 10: current label already satisfies Eq. 4 *)
  | Equal_split  (** line 12: split at equal sequence numbers *)

val compute :
  current:Ordering.t -> cached:Ordering.t -> adv:Ordering.t -> result

(** Like {!compute}, generic over the label set: [labels] supplies the
    next-element of line 5 and the interpolation of lines 7 and 12. The
    default instance is {!Label.Mediant} (Eq. 1); {!Label.Farey} yields
    minimal-denominator labels — the fraction-reduction extension the paper
    sketches as future work (§VI) — and {!Label.Bigfrac_set}/{!Label.Lex}
    never overflow. *)
val compute_with :
  labels:(module Label.S) ->
  current:Ordering.t ->
  cached:Ordering.t ->
  adv:Ordering.t ->
  result

(** [feasible ~current ~adv] is the Procedure 3 admission check: the
    advertisement's label must be a feasible in-order successor label for
    the node ([current ⊑ adv], Theorem 2 / Eq. 5). *)
val feasible : current:Ordering.t -> adv:Ordering.t -> bool

(** Prints the constructor name, for counterexample reports. *)
val pp_case : Format.formatter -> case -> unit

(** [filter_successors ~order succs] drops successors that are no longer
    in-order after adopting [order] (Algorithm 1 line 13): keeps [s] iff
    [order ⊑ s]. *)
val filter_successors :
  order:Ordering.t -> ('a * Ordering.t) list -> ('a * Ordering.t) list
