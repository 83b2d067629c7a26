(** The paper's simulation campaign: protocols × pause times × trials, with
    mobility and traffic scripts fixed per trial (identical across
    protocols), aggregated with 95% confidence intervals.

    Campaigns run under a {!Supervisor} policy: a crashing or wedged cell is
    retried and, if it keeps failing, quarantined (recorded in {!t.failures})
    instead of aborting the sweep — unless the policy is fail-fast, which
    restores the historical abort-on-first-error behaviour. An optional
    JSONL checkpoint journals every resolved cell so an interrupted campaign
    can resume where it left off. *)

(** Aggregated measurements for one (protocol, pause) cell. *)
type cell = {
  delivery : Stats.Summary.t;
  load : Stats.Summary.t;
  latency : Stats.Summary.t;
  mac_drops : Stats.Summary.t;  (** per-node MAC drops (Fig. 3) *)
  seqno : Stats.Summary.t;  (** average node sequence number (Fig. 7) *)
  mutable max_denominator : int;  (** SRP's largest fraction denominator *)
  mutable label_width_bits : int;
      (** widest encoded SRP label across the cell's runs (bits) *)
  mutable label_resets : int;
      (** label-driven resets (T-bit / MAX_DENOM) summed over the cell *)
}

(** Identity of one campaign cell; [pause] is the nominal (un-scaled)
    pause time the cell is keyed by in reports. *)
type key = { protocol : Config.protocol; pause : float; trial : int }

type t = {
  base : Config.t;
  protocols : Config.protocol list;
  pauses : float list;
  trials : int;
  cells : (Config.protocol * float, cell) Hashtbl.t;
  mutable engine_events : int;
      (** engine events executed across every run of the campaign *)
  mutable failures : (key * Supervisor.failure) list;
      (** quarantined cells in canonical sweep order; empty on a clean
          campaign. Quarantined cells contribute nothing to {!cells} or
          [engine_events]. *)
}

(** A checkpoint journal exists but cannot drive this campaign: unreadable,
    a corrupt non-tail line, or a header recording a different
    configuration or schema (a journal from an older release has an older
    [manet-sim/journal-vN] header). Resuming anyway would graft foreign
    results into the sweep, so this is an error, not a fresh start. *)
exception Resume_error of string

(** [run ~base ~protocols ~pauses ~trials ~progress] executes the campaign.
    Trial [k] uses seed [base.seed + k] for every protocol.
    [progress] is called after each completed run with a human-readable
    line (pass [ignore] to silence).

    [jobs] farms the (protocol, pause, trial) cells out to that many
    domains ({!Pool.map}). Each cell is an isolated deterministic
    simulation (own engine, own splitmix64 substreams seeded from
    [base.seed + trial]) and per-cell results are merged in the sequential
    iteration order afterwards, so the aggregated campaign — report tables
    and JSON alike — is byte-identical whatever [jobs] is; only the
    interleaving of [progress] lines (and their wall-clock stamps) varies.

    [pause_scale] multiplies each pause time before simulating (pass 1.0
    for the paper's scale),
    while results stay keyed by the nominal pause. Reduced campaigns use
    [duration /. 900] so that "pause 300 in a 900 s run" and "pause 40 in a
    120 s run" describe the same fraction of time spent paused — otherwise
    every pause longer than the run collapses to "static".

    [policy] governs crash isolation (default {!Supervisor.fail_fast}: any
    cell failure re-raises as {!Pool.Cell_error}, the historical
    behaviour). Under a non-fail-fast policy failures land in
    {!t.failures} and the campaign completes.

    [checkpoint] names a JSONL journal: every resolved cell (ok or
    quarantined) is appended as it completes, and cells already present
    are restored instead of re-run. Results round-trip losslessly (exact
    IEEE-754 bits travel beside the readable JSON), and restored cells
    merge in canonical order, so a resumed campaign is byte-identical to a
    straight-through one. Raises {!Resume_error} when the journal does not
    belong to this campaign.

    [sabotage] arms a deterministic failure-injection hook for tests and
    CI smokes (see {!Sabotage}); omitted means no interference. *)
val run :
  ?policy:Supervisor.policy ->
  ?checkpoint:string ->
  ?sabotage:Sabotage.t ->
  ?meter:Obs.Progress.t ->
  jobs:int ->
  pause_scale:float ->
  base:Config.t ->
  protocols:Config.protocol list ->
  pauses:float list ->
  trials:int ->
  progress:(string -> unit) ->
  unit ->
  t

val cell : t -> Config.protocol -> float -> cell

(** Per-protocol aggregation over all pause times (Table I): delivery,
    load, latency summaries pooled across pause cells. *)
val overall :
  t ->
  Config.protocol ->
  Stats.Summary.t * Stats.Summary.t * Stats.Summary.t
