(** Structured tracing for the simulator: typed per-event records with
    simulated-time timestamps and node scope, emitted through a sink.

    The disabled path is a single branch: every emission helper first
    checks the sink and returns immediately when it is {!Null}, so an
    untraced run pays one comparison per call site and allocates nothing.
    Emission never draws randomness and never schedules events, so a
    traced run is behaviourally identical to an untraced one.

    Sinks:
    - [Null]: tracing off (the default);
    - JSONL stream: one JSON object per record, in emission order.
      Same seed, same bytes;
    - callback: every record handed to a function, for in-process
      analyses. *)

module Json = Json

(** Crash-safe append-only JSONL journal (campaign checkpoints). *)
module Journal = Journal

(** What happened. Packet events carry the flow id and the packet's
    globally unique sequence number, so one packet's lifecycle can be
    replayed from a trace ([manet_sim trace --follow FLOW:SEQ]). *)
type ev =
  | Pkt_originate of { flow : int; seq : int; dst : int }
  | Pkt_enqueue of { flow : int; seq : int }  (** accepted by the MAC queue *)
  | Pkt_tx of { flow : int; seq : int; next : int }  (** [next = -1]: broadcast *)
  | Pkt_rx of { flow : int; seq : int; from : int }
  | Pkt_forward of { flow : int; seq : int; next : int }
  | Pkt_deliver of { flow : int; seq : int; latency : float; hops : int }
  | Pkt_drop of { flow : int; seq : int; reason : string }
  | Ctl_tx of { kind : string; dst : int }  (** [dst = -1]: broadcast *)
  | Ctl_rx of { kind : string; from : int }
  | Route_add of { dst : int; via : int; dist : int }
  | Route_del of { dst : int; via : int; reason : string }
  | Label_split of {
      dst : int;
      sn : int;
      label : string;  (** instance-tagged encoding ("3/5", "0x80a1") *)
    }  (** NEWORDER minted a fresh label strictly between two orderings *)
  | Seqno_reset of { seqno : int }
  | Mac_backoff of { cw : int }
  | Mac_collision
  | Mac_retry_drop of { dst : int }
  | Mac_queue_drop
  | Fault of { kind : string; a : int; b : int }
  | Gauge of {
      routes : int;
      pending : int;
      mac_queue : int;
      live_events : int;
      executed : int;
      events_per_sec : float;
      label_width_bits : int;
          (** widest encoded routing label seen so far (0 off SRP) *)
      label_resets : int;  (** label-driven seqno resets so far *)
    }  (** periodic whole-network sample (node is -1) *)

type record = { time : float; node : int; ev : ev }

type t

(** The shared disabled tracer: every emission is a no-op. *)
val null : t

(** [enabled t] is [false] exactly for {!null}-like tracers. *)
val enabled : t -> bool

(** [jsonl ~clock oc] streams one JSON object per record to [oc].
    Call {!close} to flush (the channel itself is not closed). An
    [at_exit] hook also flushes [oc], so a run that dies with an uncaught
    exception still leaves a valid, parseable JSONL prefix on disk. *)
val jsonl : clock:(unit -> float) -> out_channel -> t

(** [callback ~clock f] hands every record to [f] as it is emitted —
    the sink for in-process analyses (the fuzzer's metrics-conservation
    oracle counts packet lifecycle events through one of these). [f] must
    not emit through the same tracer. *)
val callback : clock:(unit -> float) -> (record -> unit) -> t

(** [set_clock t clock] rebinds the timestamp source. The CLI builds its
    tracer before the simulation engine exists; the runner points the
    tracer at the engine's clock once it is created. No-op on {!null}. *)
val set_clock : t -> (unit -> float) -> unit

(** Flush buffered output (JSONL sink); no-op otherwise. *)
val close : t -> unit

(** The JSON tree of one record. A JSONL sink writes exactly
    [Json.to_string (record_to_json r)] as each line, without building
    the tree. *)
val record_to_json : record -> Json.t

(** One emission helper per event shape; all are no-ops when disabled. *)

val pkt_originate : t -> node:int -> flow:int -> seq:int -> dst:int -> unit
val pkt_enqueue : t -> node:int -> flow:int -> seq:int -> unit
val pkt_tx : t -> node:int -> flow:int -> seq:int -> next:int -> unit
val pkt_rx : t -> node:int -> flow:int -> seq:int -> from:int -> unit
val pkt_forward : t -> node:int -> flow:int -> seq:int -> next:int -> unit

val pkt_deliver :
  t -> node:int -> flow:int -> seq:int -> latency:float -> hops:int -> unit

val pkt_drop : t -> node:int -> flow:int -> seq:int -> reason:string -> unit
val ctl_tx : t -> node:int -> kind:string -> dst:int -> unit
val ctl_rx : t -> node:int -> kind:string -> from:int -> unit
val route_add : t -> node:int -> dst:int -> via:int -> dist:int -> unit
val route_del : t -> node:int -> dst:int -> via:int -> reason:string -> unit

(** The [label] argument is evaluated at the call site even when tracing
    is off — guard the call with {!enabled} to keep the disabled path
    allocation-free. *)
val label_split : t -> node:int -> dst:int -> sn:int -> label:string -> unit

val seqno_reset : t -> node:int -> seqno:int -> unit
val mac_backoff : t -> node:int -> cw:int -> unit
val mac_collision : t -> node:int -> unit
val mac_retry_drop : t -> node:int -> dst:int -> unit
val mac_queue_drop : t -> node:int -> unit
val fault : t -> kind:string -> a:int -> b:int -> unit

val gauge :
  t ->
  routes:int ->
  pending:int ->
  mac_queue:int ->
  live_events:int ->
  executed:int ->
  events_per_sec:float ->
  label_width_bits:int ->
  label_resets:int ->
  unit
