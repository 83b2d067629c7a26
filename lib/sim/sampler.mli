(** Periodic gauge sampler: a repeating engine timer that snapshots
    whole-network health — route-table sizes, pending-buffer occupancy,
    MAC queue depth, engine liveness — into the trace as [gauge] records,
    forming a time series over simulated time.

    The rate reported as [events_per_sec] is engine events executed per
    simulated second over the last interval, so it is deterministic across
    runs (no wall clock). Sampling reads gauges only (the agent contract
    forbids gauge mutation) and schedules nothing when tracing is off, so
    an untraced run's event stream is untouched. *)

(** [start engine ~trace ~every ~gauges ~mac_queue] arms the first tick at
    [every] seconds; each tick reads the network's gauges
    ({!Protocols.Routing_intf.total}) from [gauges]. No-op when [trace] is
    disabled or [every <= 0]. *)
val start :
  Des.Engine.t ->
  trace:Trace.t ->
  every:float ->
  gauges:(unit -> Protocols.Routing_intf.gauges) ->
  mac_queue:(unit -> int) ->
  unit
