(** Text renderings of the paper's Table I and Figures 3–7 from a completed
    campaign. Figures are printed as aligned data tables (pause time on the
    x-axis, one column per protocol) — the same series a plotting script
    would consume. *)

val table1 : Format.formatter -> Experiment.t -> unit

(** Fig. 3: average MAC-layer drops per node vs pause time. *)
val fig3 : Format.formatter -> Experiment.t -> unit

(** Fig. 4: delivery ratio vs pause time. *)
val fig4 : Format.formatter -> Experiment.t -> unit

(** Fig. 5: network load vs pause time (the paper plots this semi-log). *)
val fig5 : Format.formatter -> Experiment.t -> unit

(** Fig. 6: data latency vs pause time. *)
val fig6 : Format.formatter -> Experiment.t -> unit

(** Fig. 7: average node sequence number vs pause time (SRP, LDR, AODV),
    plus, when the campaign includes SRP, its maximum denominator (§V's
    "stayed under 840 million") and a line naming its label set with the
    widest label's width and the label-driven resets. *)
val fig7 : Format.formatter -> Experiment.t -> unit

(** Quarantined-cell section: one header plus one line per failure
    (attempts, crash-vs-timeout, error). Prints nothing on a clean
    campaign, so clean reports are byte-identical to pre-supervisor
    builds. *)
val supervision : Format.formatter -> Experiment.t -> unit

(** Everything, in paper order; ends with {!supervision} when any cell was
    quarantined. *)
val all : Format.formatter -> Experiment.t -> unit

(** Single-run report: the paper metrics line, per-reason routing drops,
    a fault-event line when faults were injected, a route-recovery line
    whenever any outage healed (clean runs included — mobility alone breaks
    and restores routes), and a [labels:] line (max denominator, widest
    label, label-driven resets) whenever the run adopted a label. The
    rendering is deterministic for a given result; the determinism test
    compares two same-seed faulted runs through it byte for byte. *)
val run : Format.formatter -> Metrics.result -> unit

(** [run_json config r] is the machine-readable single-run envelope
    [{"schema":"manet-sim/run-v2","config":…,"result":…}]. *)
val run_json : Config.t -> Metrics.result -> Trace.Json.t

(** Whole-campaign export, [manet-sim/campaign-v2]: scenario, protocol and
    pause axes, and per-cell metric summaries (mean / 95% CI / count) with
    each cell's max denominator, widest label and label-driven resets. *)
val campaign_json : Experiment.t -> Trace.Json.t

(** {1 [--prof] rendering}

    The profile is appended by the CLI layer, never by {!campaign_json} /
    {!run_json} themselves, so unprofiled envelopes stay byte-identical to
    pre-observability builds. *)

(** Machine-readable profile: spans and histograms with count / total /
    p50 / p99, counter totals, and the per-worker-domain cell/GC ledger. *)
val profile_json : Obs.snapshot -> Trace.Json.t

(** [add_profile json snapshot] appends a ["perf_profile"] member to a
    JSON object envelope (returns non-objects unchanged). *)
val add_profile : Trace.Json.t -> Obs.snapshot -> Trace.Json.t

(** Human [Profile] section: spans sorted by total time, then worker-domain
    GC lines and counter totals. *)
val profile : Format.formatter -> Obs.snapshot -> unit
