(** Shared broadcast medium with unit-disk propagation and a receiver-side
    collision model.

    The channel is polymorphic in the PDU it carries (the MAC instantiates
    it with its own frame type). Reception of a PDU succeeds iff, for the
    whole airtime, the receiver is (a) within [range] of the sender at
    transmission start, (b) not transmitting itself, and (c) not corrupted
    by an overlapping transmission — otherwise the PDU is silently lost (a
    collision). For (c), two overlapping receptions at one node are
    weighed by capture: the one whose sender is at least [capture_ratio]
    (3) times closer survives and the other is corrupted; without that
    margin both are. A frame from a sender beyond [range] but within
    [cs_range] (the interference zone) cannot be decoded, and it corrupts
    a reception unless that reception's sender is at least
    [capture_ratio] times closer. Carrier sense at a node reports busy
    while the node itself transmits, or while a frame from another sender
    within [cs_range] of it is in the air or ended less than an idle guard
    (60 us) ago; the guard lets SIFS-spaced replies win the medium over
    DIFS-spaced contenders. Node positions come from the nodes' mobility
    scripts, evaluated at transmission start (frame airtimes are
    microseconds; node displacement within one frame is negligible).

    The frame path keeps its state in flat per-node arrays. Positions are
    read through a {!Waypoint.cache} of each node's current segment, which
    the channel's grid shares, and memoised per (node, time) in one
    interleaved float array. Receptions
    live in slot arrays: a per-node chain of the receptions in progress
    (newest first), a per-frame chain (sweep order) and a free list. A
    reception whose end the channel prunes from its node's chain keeps
    its slot until its frame-end event, which delivers it and frees it. *)

type 'a t

(** Enables the spatial-grid hot path: neighbour scans in [transmit] and
    [neighbors] sweep only the nodes whose bucketed position lies near the
    query disc instead of all N nodes, and every sweep and carrier-sense
    query skips a node's exact position lookup when its bucketed position
    alone proves the outcome (see {!Grid}). [max_speed] must bound every
    node's speed and [epoch] is the maximum grid staleness before a lazy
    rebuild; the two together size the slack that keeps every pruning
    conservative, so results are identical to the naive scan (enforced by
    the [channel-grid-equiv] property). Carrier sense reads the grid as
    last built and never rebuilds it. *)
type grid = { max_speed : float; epoch : float }

(** [create engine ~scripts ~range ~cs_range] is a channel among one
    node per script: node [i] moves as [scripts.(i)] says.
    @raise Invalid_argument when [cs_range < range]. [trace] records a
    [mac-collision] event at each receiver-side corruption. [grid]
    switches the O(N)-per-frame neighbour scan to the spatial hash grid;
    omitted, the channel scans every node (the reference behaviour). *)
val create :
  ?trace:Trace.t ->
  ?grid:grid ->
  Des.Engine.t ->
  scripts:Waypoint.t array ->
  range:float ->
  cs_range:float ->
  'a t

(** Install the upper-layer delivery callback for a node. *)
val set_receiver : 'a t -> int -> (src:int -> 'a -> unit) -> unit

(** [set_filter t f] installs a fault-injection veto: a frame that would be
    delivered intact is silently dropped when [f ~src ~dst] is [false],
    evaluated at delivery time. The filter does not affect carrier sense or
    collision accounting — a faulted link still radiates energy. *)
val set_filter : 'a t -> (src:int -> dst:int -> bool) -> unit

(** [transmit t ~src ~duration pdu] starts a transmission now.

    Frame-end contract: a frame that reaches any listening node schedules
    exactly one engine event, at [now + duration], and nothing else (no
    event when no node in range is listening). That event handles the
    receivers in sweep order, ascending id on both the grid and the naive
    channel: each reception leaves the node's in-progress set, then,
    unless it was corrupted, its receiver is transmitting or the filter
    vetoes the pair, reaches the receiver's callback. Every receiver is
    handled before any other event for that instant scheduled after this
    call, including events the callbacks themselves schedule with zero
    delay. This is the order one event per receiver would give: the sweep
    schedules nothing else, so those events would hold one key and
    consecutive tie numbers, and whatever a handler schedules at the same
    time takes a later tie. The [channel.receptions] Obs counter adds up
    the receivers these events handle.

    Sweep contract: with a grid, the sweep drops a candidate beyond
    [range] that has no reception in progress before it sorts the rest
    (see {!Grid.iter}); such a node would only have been looked up. One
    pass per frame picks the air entries that can corrupt a reception of
    this frame, those within the carrier-sense reach plus [range] of the
    sender, and each receiver's interferer loop reads only those. Each
    call adds the air entries that pass read to the
    [channel.interferers.scanned] Obs counter and those it picks to
    [channel.interferers.picked]. *)
val transmit : 'a t -> src:int -> duration:float -> 'a -> unit

(** Carrier sense at a node: [busy_until t i] is the absolute time when
    the medium around [i] goes idle: the end of [i]'s own transmission or
    of the idle guard after a frame from another sender within
    [cs_range], whichever is later; [now] when already idle, so the
    medium is busy exactly when the result exceeds [now]. Lets a MAC
    anchor its re-contention at the idle boundary the way DCF's frozen
    backoff counters do. Each call adds the air entries it reads to the
    [channel.sense.scanned] Obs counter. *)
val busy_until : 'a t -> int -> float

(** Nodes currently within range of [node] (excluding itself). *)
val neighbors : 'a t -> int -> int list

val in_range : 'a t -> int -> int -> bool

(** Total receiver-side collision corruptions so far. *)
val collisions : 'a t -> int

(** Collisions suffered per node (as receiver). *)
val collisions_at : 'a t -> int -> int

(** Spatial-grid rebuilds performed so far; 0 on a naive-scan channel. *)
val grid_rebuilds : 'a t -> int
