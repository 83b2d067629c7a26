(** The dense label value and the abstract label-set interface (paper §II,
    §VI).

    SLR needs only an ordered dense set with least and greatest sentinels;
    the concrete choice trades label width against path-reset frequency.
    {!t} is the universal value type: every instance's labels inhabit it, so
    one {!Ordering.t} (and one SRP message format) works for all instances.
    Value-level operations — ordering, sentinel tests, width, printing —
    dispatch on the representation; the generative operations that
    distinguish the instances (minting a label between or above others, the
    overflow test, the solicitation lie) live behind the {!S} module type,
    with four conforming instances:

    - {!Mediant}: bounded 32-bit fractions split by the mediant (Eq. 1) —
      the paper's SRP, and the repo default;
    - {!Farey}: the same representation, split by minimal-denominator
      Stern–Brocot interpolation (the §VI future-work extension);
    - {!Bigfrac_set}: unbounded fractions — no resets ever, unbounded width;
    - {!Lex}: lexicographic byte strings — dense, cheap ordering, one byte
      of growth per worst-case split.

    The two rational representations compare exactly against each other;
    comparing either against a lexicographic label is a programming error
    (instances are never mixed within a run — the registry hands the whole
    stack one instance). *)

type t =
  | Frac of Fraction.t  (** bounded mediant / Farey representation *)
  | Big of Bigfrac.t  (** unbounded fraction *)
  | Lex of Lexlabel.t  (** lexicographic byte string *)

(** Exact order. Rational representations promote; mixing a rational with a
    lexicographic label raises [Invalid_argument]. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** Least element of its instance (the destination's label). *)
val is_zero : t -> bool

(** Greatest element of its instance (the unassigned sentinel). *)
val is_one : t -> bool

(** Total encoded label width in bits — numerator plus denominator bit
    length for rationals, [8 * bytes] for strings. The growth measure the
    paper trades against path resets. *)
val width_bits : t -> int

(** Compact, instance-unambiguous string form ("3/5", "0x80a1", "top"),
    used by the trace encoding. *)
val encode : t -> string

val pp : Format.formatter -> t -> unit

(** The abstract label set: what {!New_order} and SRP program against. *)
module type S = sig
  val name : string

  (** Least element — the destination's own label. *)
  val zero : t

  (** Greatest element — the unassigned sentinel. *)
  val one : t

  val compare : t -> t -> int

  (** Next-element operator (Eq. 2): a label strictly greater than the
      argument; [None] on overflow or for the greatest element. *)
  val next : t -> t option

  (** [split ~lo ~hi] mints a label strictly inside ([lo], [hi]) —
      Algorithm 1 lines 7/12. Requires [lo < hi]; [None] when the set
      cannot represent one (overflow). *)
  val split : lo:t -> hi:t -> t option

  (** Eq. 11's reset-required test: the label space is exhausted between
      the two — a split of the (non-degenerate) gap would be
      unrepresentable. Argument order is irrelevant, and an equal pair is
      [false]: degenerate gaps are resolved by {!New_order} degrading to
      the infinite ordering, not by resets, for every instance (this
      mirrors the mediant's arithmetic test, which an equal small pair
      never trips). Truly dense instances are constantly [false]. *)
  val would_overflow : t -> t -> bool

  (** The §V solicitation lie: a label slightly below the argument so only
      strictly better-ordered nodes reply. Must never reach {!zero};
      returns the argument unchanged when it cannot be lowered. *)
  val understate : k:int -> t -> t

  (** MAX_DENOM-style width threshold triggering a D-bit probe reset.
      Unbounded sets never reset. *)
  val over_reset_threshold : max_denom:int -> t -> bool

  val width_bits : t -> int
  val encode : t -> string
  val pp : Format.formatter -> t -> unit
end

module Mediant : S
module Farey : S
module Bigfrac_set : S
module Lex : S
