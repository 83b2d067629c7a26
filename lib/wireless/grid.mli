(** Spatial hash grid over mobile node positions.

    The grid buckets every node by its position at the last rebuild and
    answers radius queries with a {e superset} of the nodes currently
    within the radius. The bound behind it: a node moves at most
    [max_speed], so at [now] it is within {!slack} [= max_speed * (now -
    built_at)] of the position it was bucketed under. A bucketed position
    farther than [radius + slack + margin] from an exact centre therefore
    proves the node is beyond [radius] now ({!margin} absorbs float
    rounding); when both ends are bucketed positions the slack counts
    twice. The grid is rebuilt whenever a query arrives more than [epoch]
    seconds after the last build, which keeps the slack small. Callers
    re-check exact distances; the grid only prunes the candidate set, so
    swapping it in for a full scan cannot change observable behaviour (the
    [channel-grid-equiv] property and the wireless unit tests enforce
    exactly this).

    Rebuilds are lazy: nothing happens until a query (or an explicit
    {!rebuild}) needs fresh buckets. *)

type t

(** [create ~positions ~cell ~max_speed ~epoch] indexes one node per
    script that [positions] caches and reads node [i] through it; the
    channel shares its own cache with its grid, so each segment change is
    refilled once. [cell] is the bucket side length (a radius-sized
    cell keeps queries to a 3x3 neighbourhood); [max_speed] bounds any
    node's speed; [epoch] is the maximum bucket staleness before a query
    forces a rebuild.
    @raise Invalid_argument when [cell <= 0], [epoch <= 0] or
    [max_speed < 0]. *)
val create :
  positions:Waypoint.cache ->
  cell:float ->
  max_speed:float ->
  epoch:float ->
  t

(** Force a rebuild of every bucket from positions at [now] (queries do
    this lazily; exposed for benchmarks and tests). *)
val rebuild : t -> now:float -> unit

(** [ensure t ~now] rebuilds when the buckets were never built, are more
    than [epoch] old, or were built after [now]; {!iter} starts with it.
    A caller that combines {!slack} with an {!iter} at the same [now]
    calls [ensure] before {!slack}, so the slack it reads belongs to the
    buckets {!iter} uses. *)
val ensure : t -> now:float -> unit

(** [iter ?keep t ~now ~center ~radius f] calls [f j], in ascending
    node order, for every node [j] whose bucketed position lies within
    [radius + slack t ~now + margin] of [center] (an exact position) — a
    superset of [{ j | dist(center, position j now) <= radius }] — and
    that [keep j] accepts (by default every such node). Runs {!ensure}
    first. The querying node itself is included when it falls in range;
    callers skip it.

    [keep] runs while the candidates are gathered, in bucket order and
    before any [f]: dropped candidates are never sorted. It must have no
    side effects, and its answer for [j] must not depend on what [f]
    does to any node but [j] itself; then it decides exactly what the
    same test made first thing in [f] would. Each call adds the
    candidates within the inflated disc to the [channel.grid.gathered]
    Obs counter and those [keep] accepts to [channel.grid.sorted]. *)
val iter :
  ?keep:(int -> bool) ->
  t ->
  now:float ->
  center:Vec2.t ->
  radius:float ->
  (int -> unit) ->
  unit

(** [slack t ~now] is [max_speed * (now - built_at)]: no node is farther
    than this from its bucketed position at [now]. [infinity] before the
    first build and when [now] precedes the last build, so a bound built
    from it prunes nothing. Reads the grid as last built; never rebuilds. *)
val slack : t -> now:float -> float

(** Metres every pruning bound adds on top of the slack, for float
    rounding in the position lookups and distance arithmetic. *)
val margin : float

(** The coordinates each node was bucketed under at the last build,
    node [j]'s x at [2 j] and its y at [2 j + 1]. This is the grid's own
    array, allocated once and overwritten in place by each rebuild: read
    it, never write it. Meaningful only while {!slack} is finite. *)
val bucketed : t -> float array

(** Number of rebuilds performed so far (lazy and forced). *)
val rebuilds : t -> int
