(** Minimal-denominator interpolation via the Stern–Brocot tree — the
    fraction-reduction direction the paper names as future work (§VI,
    "walking a Farey tree").

    The plain mediant of relatively prime fractions grows denominators along
    a Fibonacci worst case; {!simplest_between} instead returns the unique
    fraction with the smallest denominator strictly inside an interval,
    slowing label growth dramatically (see the ablation bench). *)

(** [simplest_between ~lo ~hi] is the minimal-denominator fraction strictly
    between [lo] and [hi], or [None] if it exceeds the 32-bit bound (only
    possible for adjacent Farey neighbours at the bound).
    @raise Invalid_argument unless [lo < hi]. *)
val simplest_between : lo:Fraction.t -> hi:Fraction.t -> Fraction.t option
