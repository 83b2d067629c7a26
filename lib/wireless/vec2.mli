(** 2D points/vectors in metres. *)

type t = { x : float; y : float }

val make : x:float -> y:float -> t

val zero : t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val dist : t -> t -> float

val dist_sq : t -> t -> float

val norm : t -> float

(** [lerp a b ~frac] is the point a fraction [frac] of the way from
    [a] to [b]. *)
val lerp : t -> t -> frac:float -> t

val equal : t -> t -> bool
