(** Rectangular simulation terrain with the origin at the south-west corner.
    The paper uses 2200 m × 600 m. *)

type t = { width : float; height : float }

(** @raise Invalid_argument on non-positive dimensions. *)
val make : width:float -> height:float -> t

(** The paper's terrain: 2200 m × 600 m. *)
val paper : t

val contains : t -> Vec2.t -> bool

(** Uniformly random point inside the terrain. *)
val random_point : t -> Des.Rng.t -> Vec2.t
