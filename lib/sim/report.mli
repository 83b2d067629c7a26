(** Text renderings of the paper's Table I and Figures 3–7 from a completed
    campaign. Figures are printed as aligned data tables (pause time on the
    x-axis, one column per protocol) — the same series a plotting script
    would consume. *)

(** The campaign report, in paper order: Table I (each protocol's
    delivery ratio, network load and latency over all pause times, mean ±
    95% CI), then Figs. 3–6 (MAC drops per node, delivery ratio, network
    load, latency) and Fig. 7 (average sequence number of SRP, LDR and
    AODV; with SRP, its maximum denominator against §V's "stayed under
    840 million", its label set, widest label and label-driven resets).
    When any cell was quarantined, a Supervision section follows: one line
    per failure (attempts, crash or timeout, error). *)
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

(** [add_profile json snapshot] appends a ["perf_profile"] member to a
    JSON object envelope (returns non-objects unchanged): spans and
    histograms with count / total / p50 / p99, counter totals, and the
    per-worker-domain cell/GC ledger. *)
val add_profile : Trace.Json.t -> Obs.snapshot -> Trace.Json.t

(** Human [Profile] section: spans sorted by total time, then worker-domain
    GC lines and counter totals. *)
val profile : Format.formatter -> Obs.snapshot -> unit
