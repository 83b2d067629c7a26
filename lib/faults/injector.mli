(** Executes a {!Spec} plan against a running simulation.

    The injector schedules one {!Des.Engine} timer per planned event and
    exposes the *current* fault state as cheap queries: the channel
    consults {!frame_ok} on every frame delivery, instrumentation consults
    {!node_up}. Crash/restart side effects (clearing a node's MAC and
    swapping its agent) are delegated to the host via callbacks so this
    library stays free of any protocol or MAC dependency. *)

type t

(** [create engine ~nodes ~rng ~plan ~on_crash ~on_restart] schedules every
    event of [plan] that is not already in the past. [rng] drives only the
    per-frame loss-burst draws. [on_crash i] fires when node [i] goes down,
    [on_restart i] when it comes back. Each applied event is also reported
    to [trace] as a fault record. *)
val create :
  ?trace:Trace.t ->
  Des.Engine.t ->
  nodes:int ->
  rng:Des.Rng.t ->
  plan:Spec.timed list ->
  on_crash:(int -> unit) ->
  on_restart:(int -> unit) ->
  t

(** Is the frame [src -> dst] deliverable right now? [false] (and counted)
    when either endpoint is crashed, the link is flapped down, a partition
    separates the endpoints, or a loss-burst draw kills it. *)
val frame_ok : t -> src:int -> dst:int -> bool

val node_up : t -> int -> bool

(** Fault events applied so far: every link-down, link-up, crash,
    partition start and heal, and burst start, and each restart of a node
    that was down. *)
val event_count : t -> int

(** Frames suppressed by {!frame_ok} so far. *)
val frames_blocked : t -> int
