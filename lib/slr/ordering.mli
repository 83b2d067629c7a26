(** SRP's composite node label [O = (sn, F)] — a destination-controlled
    sequence number paired with a feasible-distance label drawn from a
    dense {!Label} set (paper §III, Definitions 4–7).

    The Ordering Criteria (Definition 5) give a strict partial order [⊑]:
    [precedes a b] (written "a ⊑ b") holds iff [sn a < sn b], or the sequence
    numbers are equal and [label b < label a]. It reads "b is a feasible
    in-order successor for a": a fresher sequence number, or a smaller
    label at the same freshness, is closer to the destination.

    The fraction-named helpers ({!make}, {!frac}, {!add},
    {!split_would_overflow}, {!unassigned}, {!destination}) are the
    bounded-mediant back-compat surface; instance-generic code uses {!v},
    {!unassigned_of} and {!destination_of} with a first-class
    {!Label.S}. *)

type t = { sn : int; label : Label.t }

(** The maximum ordering [(0, 1/1)] of the default bounded-fraction
    instance — the label of an unassigned node (Definition 5). *)
val unassigned : t

(** The unassigned sentinel [(0, one)] of an arbitrary instance. *)
val unassigned_of : (module Label.S) -> t

(** [v ~sn ~label] with [sn >= 0]. @raise Invalid_argument otherwise. *)
val v : sn:int -> label:Label.t -> t

(** [make ~sn ~frac] wraps a bounded fraction; [sn >= 0].
    @raise Invalid_argument otherwise. *)
val make : sn:int -> frac:Fraction.t -> t

(** A destination's label for itself in the default instance:
    [(sn, 0/1)] (Definition 7); [sn] must be non-zero.
    @raise Invalid_argument otherwise. *)
val destination : sn:int -> t

(** The destination label [(sn, zero)] of an arbitrary instance. *)
val destination_of : (module Label.S) -> sn:int -> t

(** The bounded fraction inside a default-instance ordering.
    @raise Invalid_argument on unbounded or lexicographic labels. *)
val frac : t -> Fraction.t

(** Finite iff the label is strictly below its set's greatest element
    (Definition 5). *)
val is_finite : t -> bool

val is_unassigned : t -> bool

(** [precedes a b] is the OC relation [a ⊑ b] of Definition 5. Strict and
    partial: [precedes a a = false], and labels equal in both components are
    incomparable. *)
val precedes : t -> t -> bool

(** [min a b] is [b] when [a ⊑ b], else [a] (Definition 5). *)
val min : t -> t -> t

(** Structural equality of both components. *)
val equal : t -> t -> bool

(** [add t f] is Definition 6's ordering addition [(sn, mediant(frac, f))];
    [None] when a component would overflow 32 bits. Requires [t] finite and
    fraction-labelled. *)
val add : t -> Fraction.t -> t option

(** [split_would_overflow a b] mirrors Eq. 11's overflow test for the
    mediant instance: [true] when the fraction mediant of [a] and [b]
    cannot be represented. *)
val split_would_overflow : t -> t -> bool

val pp : Format.formatter -> t -> unit
