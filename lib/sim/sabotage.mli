(** Deterministic sabotage of one campaign cell — the test harness for
    {!Supervisor}. A spec names a [(protocol, pause, trial)] cell and a
    failure mode; when the experiment runner reaches that cell it raises
    (crash) or spins until the cell's deadline fires (hang) instead of
    simulating. Gated behind an explicit CLI flag ([--sabotage]); inert
    otherwise.

    Spec syntax: [MODE:PROTOCOL:PAUSE:TRIAL[@FAILS]] — e.g.
    [crash:AODV:0:1] (cell always crashes), [hang:DSR:50:0] (cell spins
    until its timeout), [crash:SRP:0:0@1] (only the first attempt fails,
    so one retry heals it). [FAILS] defaults to every attempt. *)

type mode = Crash | Hang

type t = {
  mode : mode;
  protocol : Config.protocol;
  pause : float;  (** nominal (unscaled) pause time of the target cell *)
  trial : int;
  fails : int;  (** number of leading attempts to sabotage *)
}

val of_string : string -> (t, string) result

(** [arm spec ~protocol ~pause ~trial ~attempt ~deadline] does nothing
    unless [spec] targets this cell and [attempt <= fails]; then it raises
    [Failure] (crash) or loops on {!Supervisor.check_deadline} (hang —
    which therefore raises {!Supervisor.Timeout} once the deadline passes,
    and spins forever when no cell timeout is configured, exactly like a
    genuinely wedged cell). *)
val arm :
  t option ->
  protocol:Config.protocol ->
  pause:float ->
  trial:int ->
  attempt:int ->
  deadline:float option ->
  unit
