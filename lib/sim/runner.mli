(** Builds a complete simulated world from a {!Config.t} — mobility scripts,
    channel, one MAC and one routing agent per node, CBR traffic — runs it,
    and returns the paper's metrics.

    Mobility and traffic scripts depend only on [config.seed], never on the
    protocol, so different protocols in the same trial face identical node
    movement and packet demands (the paper's methodology). *)

(** Run one simulation to completion.

    [trace] receives the full structured event stream (packet lifecycle,
    routing control, MAC, faults); it defaults to {!Trace.null}, in which
    case every emission site reduces to one branch and the run is
    behaviourally identical. [sample_every], when positive and tracing is
    on, arms the periodic {!Sampler} gauge time series at that interval
    (simulated seconds). The tracer is flushed ({!Trace.close}) before the
    result is returned — also when the run aborts, so a crashed or
    timed-out cell still leaves a valid JSONL prefix.

    [deadline] is an absolute wall-clock bound ({!Supervisor} cell
    timeouts): the engine's event-loop watchdog checks it every few
    thousand events — scheduling nothing, so a run that finishes in time
    is byte-identical to an unbounded one — and raises
    {!Supervisor.Timeout} once it passes. *)
val run :
  ?trace:Trace.t ->
  ?sample_every:float ->
  ?deadline:float ->
  Config.t ->
  Metrics.result

(** [run_custom config ~build ~on_start] runs with caller-supplied agents
    ([build node_id ctx]) and a hook invoked with the engine before the
    simulation starts (for scheduling instrumentation such as the
    loop-freedom sweeps of {!Loopcheck}).

    When [config.faults] is not {!Faults.Spec.none}, the runner expands it
    into a plan on the "faults" RNG substream, hooks the channel with the
    injector's frame veto, and models a crash as total volatile-state loss:
    the node's MAC is cleared and its agent replaced by an inert stand-in
    until the restart rebuilds it through [build] (so white-box harnesses
    see reboots too). [on_faults] receives the live injector right after it
    is armed — instrumentation can capture it for {!Faults.Injector.node_up}
    queries. It is never called on fault-free runs. *)
val run_custom :
  ?on_faults:(Faults.Injector.t -> unit) ->
  ?trace:Trace.t ->
  ?sample_every:float ->
  ?deadline:float ->
  Config.t ->
  build:(int -> Protocols.Routing_intf.ctx -> Protocols.Routing_intf.agent) ->
  on_start:(Des.Engine.t -> unit) ->
  Metrics.result
