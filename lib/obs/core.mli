(** Performance-observability core: typed metrics registry, hot-path span
    timers, and per-domain GC/worker telemetry.

    Determinism contract: nothing here touches simulation state — all
    timing is wall-clock side-state outside the DES. With profiling
    disabled (the default), span and histogram operations are a single
    atomic-flag read and allocate nothing; counters are always live (they
    sit off the hot paths and the gauge sampler reads them in unprofiled
    runs too). *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

(** Wall clock in integer nanoseconds. *)
val now_ns : unit -> int

(** {1 Registry}

    Metrics are interned by name: the same name always returns the same
    handle, from any domain. Handles are cheap immutable records; create
    them once at module level where possible. *)

type span
type histogram
type counter

val span : string -> span
val histogram : string -> histogram
val counter : string -> counter

(** {1 Hot-path operations}

    All state lives in domain-local all-integer slot tables: recording
    never contends and never boxes. Spans do not self-nest (a [start]
    overwrites the pending stamp). *)

val start : span -> unit
val stop : span -> unit

(** Record an externally measured duration against a span (gated on
    [enabled], like [start]/[stop]). *)
val record_span_ns : span -> int -> unit

val observe : histogram -> int -> unit
val incr : counter -> unit
val add : counter -> int -> unit

(** Sum of a counter across all domains. Racy while workers run (may lag
    by in-flight increments); exact once they have joined. *)
val counter_value : counter -> int

(** {1 Per-cell GC deltas and the worker ledger} *)

type gc_delta = {
  gc_minor_collections : int;
  gc_major_collections : int;
  gc_minor_words : int;
  gc_promoted_words : int;
  gc_major_words : int;
}

(** Run a thunk and return its result with the [Gc.quick_stat] delta
    observed across it (word counts truncated to int). OCaml 5 caveat:
    [quick_stat] counters are runtime-global — allocation is (approximately)
    summed over all domains and [minor_collections] counts stop-the-world
    minor cycles shared by every domain — so with parallel workers a delta
    measures the global GC activity during the thunk's window, not this
    domain's share alone. Under [jobs = 1] the two coincide. *)
val gc_capture : (unit -> 'a) -> 'a * gc_delta

(** Credit one finished campaign cell (busy wall seconds + its GC delta)
    to the calling domain's worker ledger. Always on. *)
val cell_done : wall:float -> gc:gc_delta -> unit

(** {1 Snapshots}

    Plain data with deterministic (name-sorted) ordering, summed over
    every domain's tables. Empty metrics are omitted. *)

type dist = {
  dist_name : string;
  dist_count : int;
  dist_total : int;  (** sum of recorded values (ns for spans) *)
  dist_buckets : int array;  (** log2 buckets, see [bucket_index] *)
}

type worker = {
  w_domain : int;
  w_cells : int;
  w_busy_ns : int;
  w_minor_collections : int;
  w_major_collections : int;
  w_minor_words : int;
  w_promoted_words : int;
  w_major_words : int;
}

type snapshot = {
  spans : dist list;
  hists : dist list;
  counters : (string * int) list;
  workers : worker list;
}

val snapshot : unit -> snapshot

(** [percentile d p] for [p] in (0,1]: the bucket floor at rank
    [ceil (p * count)] — a power of two within 2x below the true
    quantile. 0 on an empty distribution. *)
val percentile : dist -> float -> int

(** Bucket 0 holds values [<= 0]; bucket [i >= 1] holds
    [2^(i-1), 2^i). 48 buckets; the last one absorbs the tail. *)
val bucket_index : int -> int

val bucket_floor : int -> int
val bucket_count : int

(** Zero every slot table and worker ledger in every domain (registry
    handles stay valid). For separating measurement passes. *)
val reset : unit -> unit
