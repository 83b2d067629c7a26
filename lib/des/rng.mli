(** Deterministic splittable pseudo-random number generator (splitmix64).

    Every simulation component draws from its own substream derived with
    {!split}, so adding draws in one component never perturbs another — the
    property the paper relies on when comparing protocols over identical
    mobility and traffic scripts. *)

type t

(** [create seed] makes a fresh generator. Equal seeds give equal streams. *)
val create : int64 -> t

(** [split t tag] derives an independent substream labelled by [tag].
    Deterministic in [(seed of t, tag)] and independent of draws made on
    [t] so far. *)
val split : t -> string -> t

(** [copy t] duplicates the generator including its current position. *)
val copy : t -> t

(** Next raw 64-bit value. *)
val bits64 : t -> int64

(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)
val int : t -> int -> int

(** [float t bound] is uniform in [\[0, bound)]. *)
val float : t -> float -> float

(** [uniform t ~lo ~hi] is uniform in [\[lo, hi)]. *)
val uniform : t -> lo:float -> hi:float -> float

(** [exponential t ~mean] draws from Exp(1/mean). *)
val exponential : t -> mean:float -> float

(** [bool t] is a fair coin. *)
val bool : t -> bool

(** [shuffle t arr] permutes [arr] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit
