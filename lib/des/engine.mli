(** Discrete-event simulation engine.

    Events are thunks scheduled at absolute simulated times. Ties are broken
    by scheduling order, so runs are fully deterministic. Cancellation is
    lazy: a cancelled event stays in the queue but is skipped when popped. *)

type t

(** Handle to a scheduled event, usable with {!cancel}. *)
type handle

val create : unit -> t

(** Current simulated time in seconds; 0.0 before any event has run. *)
val now : t -> float

(** [schedule t ~delay f] runs [f ()] at [now t +. delay].

    [span] attributes the event's execution time to a named event kind in
    [--prof] profiles (default ["event.other"]). Purely observational: it
    never affects ordering or outcomes.
    @raise Invalid_argument if [delay < 0]. *)
val schedule : ?span:Obs.span -> t -> delay:float -> (unit -> unit) -> handle

(** [schedule_at t ~time f] runs [f ()] at absolute [time].
    @raise Invalid_argument if [time] is in the past. *)
val schedule_at :
  ?span:Obs.span -> t -> time:float -> (unit -> unit) -> handle

(** [cancel h] prevents the event from firing. Idempotent; cancelling an
    already-fired event is a no-op. *)
val cancel : handle -> unit

(** [cancelled h] is [true] once {!cancel} was called or the event fired. *)
val cancelled : handle -> bool

(** Number of live (not yet fired, not cancelled) events. *)
val pending : t -> int

(** [run t ~until] executes events in time order until the queue is empty or
    the next event is strictly after [until]. Afterwards [now t] is [until],
    not the time of the last executed event; a clock already past [until]
    stays where it is.

    [watchdog], when given, is called every few thousand executed events —
    without scheduling anything, so event counts and outcomes are untouched.
    It may raise to abort a wedged run (the supervisor's cell timeouts do
    exactly that); the exception propagates to the caller of [run]. *)
val run : ?watchdog:(unit -> unit) -> t -> until:float -> unit

(** [run_all t] executes every event until the queue drains. Intended for
    tests; a self-perpetuating timer makes this loop forever. *)
val run_all : t -> unit

(** Total number of events executed so far. *)
val executed : t -> int
