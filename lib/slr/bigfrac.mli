(** Unbounded proper fractions over {!Bignat} — the idealised dense ordinal
    set of SLR §II, where a label always exists between any two labels and no
    path reset is ever required (at the cost of unbounded label width). *)

type t = private { num : Bignat.t; den : Bignat.t }

(** @raise Invalid_argument unless [0 <= num <= den] and [den >= 1], with
    [num = den] only for [1/1]. *)
val make : num:Bignat.t -> den:Bignat.t -> t

val of_ints : num:int -> den:int -> t

(** Least element [0/1]. *)
val zero : t

(** Greatest element [1/1]. *)
val one : t

val is_zero : t -> bool

val is_one : t -> bool

(** Exact numerical order by cross-multiplication. *)
val compare : t -> t -> int

val equal : t -> t -> bool

val ( < ) : t -> t -> bool

(** Mediant — always defined; this set is truly dense. *)
val mediant : t -> t -> t

(** Next-element [(m+1)/(n+1)]; [None] only for [1/1]. *)
val next : t -> t option

(** Total bit width of the label (numerator plus denominator), the growth
    the paper trades against path resets. *)
val width_bits : t -> int

val pp : Format.formatter -> t -> unit
