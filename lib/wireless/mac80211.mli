(** Simplified 802.11 DCF MAC.

    Models the parts of the DCF that shape the paper's results: carrier
    sense with DIFS + random slotted backoff and binary-exponential
    contention-window growth, unicast DATA/ACK with a retry limit whose
    exhaustion is reported upward (the "link-layer unicast loss detection"
    all on-demand protocols in the paper rely on), unacknowledged broadcast,
    a bounded interface queue, and per-node drop counters (Fig. 3's metric).
    A unicast frame larger than the radio's [rts_threshold] is preceded by
    an RTS/CTS exchange — every CBR data frame is, since 532 bytes exceeds
    the default 128 — and overheard RTS/CTS frames set the NAV (virtual
    carrier sense). {!Channel} applies capture (a frame survives an overlap
    when its sender is 3 times closer than the interferer). Not modelled:
    rate adaptation.

    Backoff is implemented by re-sensing: a node picks a uniform backoff,
    sleeps DIFS + backoff, and transmits if the medium is free, otherwise
    re-draws. This approximates counter freezing with far less event churn
    and preserves relative fairness. *)

type t

type callbacks = {
  on_receive : src:int -> Frame.t -> unit;
      (** a frame addressed to this node (or broadcast) arrived intact *)
  on_unicast_success : frame:Frame.t -> dst:int -> unit;
  on_unicast_fail : frame:Frame.t -> dst:int -> unit;
      (** retry limit exhausted — the routing agent's link-break signal *)
}

(** MAC PDU carried by the channel. *)
type pdu

type stats = {
  tx_data : int;  (** DATA transmissions carrying application data *)
  tx_control : int;  (** DATA transmissions carrying routing control *)
  tx_ack : int;
  rx_delivered : int;
  drop_queue_full : int;
  drop_retry : int;
  drop_duplicate : int;  (** retransmitted frames already delivered *)
}

(** [trace] records per-transmission telemetry: backoffs with the live
    contention window, every DATA airtime (packet or control, tagged with
    {!Frame.t}'s [kind]), intact arrivals, queue-overflow and
    retry-exhaustion drops. *)
val create :
  ?trace:Trace.t ->
  Des.Engine.t ->
  Radio.t ->
  pdu Channel.t ->
  id:int ->
  rng:Des.Rng.t ->
  callbacks ->
  t

(** Enqueue a frame for transmission; drops (and counts) when the interface
    queue is full. Destination comes from the frame itself. *)
val send : t -> Frame.t -> unit

(** [reset t] models a power-cycle: discards the queue and the frame in
    flight (no [on_unicast_fail] callbacks), cancels pending timers, and
    clears contention, NAV, and duplicate-suppression state. The MAC is
    immediately usable again. *)
val reset : t -> unit

val queue_length : t -> int

val stats : t -> stats

(** Sender-side drops: queue overflow + retry exhaustion (Fig. 3). *)
val drops : t -> int
