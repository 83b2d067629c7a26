(** Per-run measurements — exactly the paper's §V metrics.

    - delivery ratio: CBR packets received / CBR packets sent;
    - network load: control packets transmitted / CBR packets received;
    - latency: mean end-to-end data-packet lifetime;
    - MAC drops: sender-side MAC drops (queue overflow + retry exhaustion)
      averaged per node (Fig. 3);
    - average node sequence number and SRP's maximum denominator (Fig. 7). *)

type t

val create : unit -> t

val on_sent : t -> Wireless.Frame.data -> unit

val on_delivered : t -> now:float -> Wireless.Frame.data -> unit

(** [on_dropped t ~now data ~reason] counts a routing-layer drop and opens
    an outage window for the packet's flow (closed, and its duration
    recorded as a route-recovery time, by the flow's next delivery). *)
val on_dropped : t -> now:float -> Wireless.Frame.data -> reason:string -> unit

(** Final per-run result. *)
type result = {
  sent : int;
  delivered : int;
  delivery_ratio : float;
  control_tx : int;  (** control-packet transmissions, all nodes *)
  network_load : float;
  latency : float;  (** mean seconds; 0 when nothing was delivered *)
  mac_drops_per_node : float;
  collisions : int;
  data_tx : int;  (** MAC data transmissions incl. retries/forwards *)
  drop_queue_full : int;
  drop_retry : int;
  avg_seqno : float;
  max_seqno : int;
  seqno_resets : int;
  max_denominator : int;
      (** largest denominator of a bounded-fraction label any node adopted
          (§V's figure); SRP only *)
  label_width_bits : int;
      (** widest encoded label any node adopted (bits); SRP only. A
          different fact from [max_denominator]: a fraction's width counts
          its numerator's bits too, so the widest label need not hold the
          largest denominator *)
  label_resets : int;
      (** label-driven resets (T-bit / MAX_DENOM probes), summed over nodes *)
  drop_reasons : (string * int) list;  (** routing-layer drops by reason *)
  fault_events : int;  (** injected fault events (0 on clean runs) *)
  fault_frames_blocked : int;  (** frames suppressed by the injector *)
  recoveries : int;  (** closed per-flow outage windows *)
  recovery_mean : float;  (** mean seconds from first drop to next delivery *)
  recovery_max : float;
  engine_events : int;  (** DES events executed over the whole run *)
}

(** [finalize t ~control_tx ~data_tx ~drop_queue_full ~drop_retry ...]
    closes the books; the MAC drops of Fig. 3 are [drop_queue_full +
    drop_retry], and [gauges] are the per-node protocol gauges. *)
val finalize :
  t ->
  control_tx:int ->
  data_tx:int ->
  drop_queue_full:int ->
  drop_retry:int ->
  collisions:int ->
  nodes:int ->
  gauges:Protocols.Routing_intf.gauges list ->
  fault_events:int ->
  fault_frames_blocked:int ->
  engine_events:int ->
  result

val pp_result : Format.formatter -> result -> unit

(** Machine-readable form of a result: a flat JSON object, one member per
    field, with deterministic member order and number formatting. *)
val result_json : result -> Trace.Json.t
