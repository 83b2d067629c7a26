(** Proper fractions [m/n] with 32-bit-unsigned-bounded components — the
    feasible-distance fraction of SRP (paper §III).

    The value range is the closed interval [\[0/1, 1/1\]]: the paper extends
    the open interval of proper fractions with the least element [0/1]
    (the destination's label) and the greatest element [1/1] (the label of an
    unassigned node). The mediant (Eq. 1) splits any two fractions; the
    next-element operator (Eq. 2) is the mediant with [1/1]. Components are
    bounded by [2^32 - 1]; a mediant whose denominator would exceed the bound
    is an {e overflow}, which SRP masks with a sequence-number path reset. *)

type t = private { num : int; den : int }

(** Largest representable numerator/denominator: [2^32 - 1]. *)
val bound : int

(** [make ~num ~den] validates [0 <= num <= den], [den >= 1], [num <= bound],
    [den <= bound].
    @raise Invalid_argument otherwise. Note [1/1] and [0/1] are allowed;
    any other [num = den] is rejected as non-canonical. *)
val make : num:int -> den:int -> t

(** The destination's label [0/1] — the least element. *)
val zero : t

(** The unassigned label [1/1] — the greatest element. *)
val one : t

val is_zero : t -> bool

val is_one : t -> bool

(** Strict numerical order by cross-multiplication (Definition 4), exact for
    all bounded components. *)
val compare : t -> t -> int

val equal : t -> t -> bool

val ( < ) : t -> t -> bool

val ( <= ) : t -> t -> bool

(** [mediant a b] is [(a.num + b.num) / (a.den + b.den)] (Eq. 1), or [None]
    when a component would exceed {!bound}. When [a < b] the mediant lies
    strictly between them. *)
val mediant : t -> t -> t option

(** [next a] is the next-element [(m+1)/(n+1)] (Eq. 2) — the mediant with
    [1/1]. [None] on overflow or when [a] is [1/1] (the greatest element has
    no next element). *)
val next : t -> t option

(** [would_overflow a b] is [true] when [mediant a b] is [None] — the test
    Eq. 11 and Algorithm 1 apply to denominator sums. *)
val would_overflow : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** Number of mediant splits of the worst-case chain starting from
    [(0/1, 1/1)] before overflow; the paper derives 45 from the Fibonacci
    sequence. Computed, not hard-coded, so the test is meaningful. *)
val max_splits : unit -> int
