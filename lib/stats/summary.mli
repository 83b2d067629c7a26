(** Running univariate summary statistics (Welford's online algorithm) and
    Student-t confidence intervals, as used for the paper's
    "95% confidence interval over 10 trials" error bars. *)

type t

val create : unit -> t

(** [add t x] folds one observation in. *)
val add : t -> float -> unit

(** Merge all observations of [other] into [t] (order-insensitive). *)
val merge : t -> t -> unit

val count : t -> int

(** Mean of the observations; 0.0 when empty. *)
val mean : t -> float

(** Unbiased sample variance; 0.0 for fewer than two observations. *)
val variance : t -> float

val min : t -> float

val max : t -> float

(** Half-width of the 95% Student-t confidence interval for the mean
    (0.0 for fewer than two observations). *)
val ci95 : t -> float

(** Two-sided Student-t critical value at 95% for [df] degrees of freedom
    (table lookup, asymptotes to 1.96). @raise Invalid_argument if [df < 1]. *)
val t_critical_95 : int -> float

(** [overlap a b] is [true] when the 95% CIs of [a] and [b] intersect —
    the paper's criterion for "statistically identical". *)
val overlap : t -> t -> bool
