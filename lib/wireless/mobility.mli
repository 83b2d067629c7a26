(** Pluggable mobility models behind one interface, keyed by the names the
    scenario registry and [--scenario] accept.

    Every model compiles to per-node {!Waypoint.t} leg scripts generated
    off-line from a dedicated RNG substream — exactly as the paper's
    "off-line generated mobility scripts" — so a trial's movement is
    byte-deterministic per seed, identical across protocols, and always
    bounded by the configured [speed_max] (which is what lets the spatial
    grid keep its candidate-superset guarantee under every model). *)

module type S = sig
  val name : string

  (** Movement scripts for all [nodes] at once (group models correlate
      nodes, so generation cannot be per-node). Node [i]'s script must
      depend only on [(rng, i)] — never on how many other nodes exist
      draws-wise — and must keep every position inside [terrain] and every
      leg speed at or below [speed_max]. *)
  val generate :
    terrain:Terrain.t ->
    rng:Des.Rng.t ->
    nodes:int ->
    pause:float ->
    speed_min:float ->
    speed_max:float ->
    duration:float ->
    Waypoint.t array
end

type id =
  | Waypoint_rw  (** random waypoint — the paper's model, the default *)
  | Manhattan  (** street-grid mobility: axis-aligned hops between corners *)
  | Rpgm  (** reference-point group mobility: members orbit a leader *)
  | Churn  (** static topology with rare one-shot relocations *)

val all : id list

val default : id

val name : id -> string

val instance : id -> (module S)

(** Dispatch through {!instance}. The {!Waypoint_rw} instance reproduces
    the historical runner's per-node substream splits byte-for-byte. *)
val generate :
  id ->
  terrain:Terrain.t ->
  rng:Des.Rng.t ->
  nodes:int ->
  pause:float ->
  speed_min:float ->
  speed_max:float ->
  duration:float ->
  Waypoint.t array

(** The street coordinates the {!Manhattan} model lays over a terrain
    (vertical-street x positions, horizontal-street y positions) — exposed
    so the on-street property can check positions against them. *)
val manhattan_streets : Terrain.t -> float array * float array

(** Group radius the {!Rpgm} model confines members to (metres). *)
val rpgm_radius : float

(** Nodes per {!Rpgm} group (node [i] belongs to group [i / group_size]). *)
val group_size : int

(** The group reference-point scripts the {!Rpgm} model rides, given the
    same arguments as [generate] — exposed so the group-radius property can
    check members against the leaders they actually followed. *)
val rpgm_leaders :
  terrain:Terrain.t ->
  rng:Des.Rng.t ->
  nodes:int ->
  pause:float ->
  speed_min:float ->
  speed_max:float ->
  duration:float ->
  Waypoint.t array
