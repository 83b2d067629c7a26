(** Pluggable traffic models behind one interface, keyed by the names the
    scenario registry and [--scenario] accept.

    Every model compiles to a {!Cbr.flow} list, so packet scheduling,
    per-flow phase and the (flow, seq) ledger are shared across models:
    swapping the model changes which packets exist, never how they are
    accounted. Generation is byte-deterministic per RNG substream. *)

type id =
  | Cbr_model  (** the paper's constant-bit-rate flows — the default *)
  | Bursty  (** CBR conversations gated by exponential on/off periods *)
  | Convergecast  (** many-to-one: every flow drains into one fixed sink *)
  | Flash  (** flash-crowd arrival: all slots ignite in a narrow window *)

val all : id list

val default : id

val name : id -> string

(** [generate id ~rng ...] — same contract as {!Cbr.generate}. The
    {!Cbr_model} instance calls it verbatim with the undivided [rng], so the
    default scenario's flow script is byte-identical to the historical
    runner's.
    @raise Invalid_argument when [nodes < 2]. *)
val generate :
  id ->
  rng:Des.Rng.t ->
  nodes:int ->
  concurrent:int ->
  from_time:float ->
  until:float ->
  mean_duration:float ->
  Cbr.flow list

(** The node every {!Convergecast} flow terminates at (exposed for the
    packet-conservation property). *)
val convergecast_sink : int

(** [flash_window ~from_time ~until] bounds when the {!Flash} ignition
    instant can fall; first-flow starts cluster just after it (exposed for
    the arrival-window property). *)
val flash_window : from_time:float -> until:float -> float * float
