(** Radio and MAC timing constants: the paper's one parameter set, a
    2 Mbps channel, ~250 m nominal range and the 802.11 DSSS DCF
    constants. Every world runs at these values. *)

(** The channel's bit/s, and in metres its unit-disk reception radius and
    its carrier-sense / interference radius (~2.2x range). *)
val bitrate : float
val range : float
val cs_range : float

(** DCF timings, s. *)
val slot : float
val sifs : float
val difs : float

(** The contention window's bounds (slots - 1), the unicast retransmissions
    before the link-loss report, and the interface queue's capacity
    (packets). *)
val cw_min : int
val cw_max : int
val retry_limit : int
val queue_limit : int

(** The PLCP preamble + header airtime, s; the bytes the MAC header adds to
    every frame; the bytes of an ACK, an RTS and a CTS frame. *)
val phy_overhead : float
val mac_header : int
val ack_size : int
val rts_size : int
val cts_size : int

(** Unicast frames larger than this use RTS/CTS; the paper-era ns-2 /
    GloMoSim comparisons ran with RTS on for data frames. *)
val rts_threshold : int

(** Airtime of a frame whose network-layer size is [size] bytes (adds the
    MAC header and PHY overhead). *)
val tx_duration : size:int -> float

(** Airtimes of an ACK, an RTS and a CTS. *)
val ack_duration : float
val rts_duration : float
val cts_duration : float
