(** Random-waypoint mobility, generated off-line per trial exactly as the
    paper does ("off-line generated mobility scripts"), so every protocol in
    a trial sees identical node movement.

    A node starts at a uniform point, pauses for [pause], then repeatedly:
    picks a uniform destination, moves toward it in a straight line at a
    uniform speed in [(speed_min, speed_max)], and pauses for [pause]. A
    pause of 900 s over a 900 s run means no mobility. *)

type leg = {
  depart : float;  (** time movement starts *)
  arrive : float;  (** time movement ends; pause follows until next leg *)
  from_p : Vec2.t;
  to_p : Vec2.t;
}

type t

(** [generate ~terrain ~rng ~pause ~speed_min ~speed_max ~duration] builds
    one node's movement script covering at least [0, duration].

    Degenerate configurations stay well-defined: [speed_max = 0] yields a
    stationary script, and a leg that draws speed 0 (possible when
    [speed_min = 0]) freezes the node in place for the rest of the run —
    every emitted position is finite and inside the terrain whatever the
    (pause, speed, duration) combination.
    @raise Invalid_argument on negative speeds, [speed_min > speed_max] or
    a negative pause. *)
val generate :
  terrain:Terrain.t ->
  rng:Des.Rng.t ->
  pause:float ->
  speed_min:float ->
  speed_max:float ->
  duration:float ->
  t

(** A script that never moves — for static scenarios and tests. *)
val stationary : Vec2.t -> t

(** [of_legs ~initial legs] builds a script from explicit legs — the entry
    point for the non-waypoint mobility models ({!Mobility}), which lay out
    their own piecewise-linear trajectories. Legs must be in time order,
    non-overlapping, and continuous ([from_p] of each leg equals the
    previous leg's [to_p], the first one equals [initial]).
    @raise Invalid_argument otherwise. *)
val of_legs : initial:Vec2.t -> leg list -> t

(** Position at time [t >= 0]; constant after the script's last leg. The
    reference for every other position lookup: {!locate} must agree with
    it bit for bit. *)
val position : t -> float -> Vec2.t

(** Positions of many scripts, read through a per-node cache of each
    node's current segment: the stretch of time over which {!position}
    evaluates one expression (a pause, or the movement along one leg).
    The segments live in one float array, 8 floats per node, so a lookup
    inside the cached segment reads one contiguous block and allocates
    nothing. A lookup outside it, whether the query moved past the
    segment's end or jumped backwards, refills the segment from the
    script first (the [mobility.segment.refills] Obs counter counts
    these). The cache holds the scripts by reference and moves their
    search cursors, which never change an answer. *)
type cache

(** [cache scripts] caches node [i]'s segment of [scripts.(i)]; nothing is
    filled until the first lookup. *)
val cache : t array -> cache

(** Number of scripts the cache holds. *)
val cached : cache -> int

(** [locate c i time dst k] writes node [i]'s position at [time] to
    [dst.(k)] (x) and [dst.(k + 1)] (y). The two floats equal those of
    [position scripts.(i) time] bit for bit, at any sequence of query
    times (the [waypoint-segment-equiv] property). Allocates nothing. *)
val locate : cache -> int -> float -> float array -> int -> unit

(** The script's legs (for tests). *)
val legs : t -> leg list

(** Maximum speed occurring in the script (for tests). *)
val max_speed : t -> float
