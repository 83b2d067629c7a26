(** The contract between a routing agent and the node that hosts it.

    A node gives its agent a {!ctx} of capabilities (clock, timers, MAC
    access, delivery sinks); the agent returns an {!agent} record of
    handlers. Record-of-closures keeps the wireless substrate free of any
    dependency on protocol code. *)

(** The hops a data packet may take; the one that would take more is
    dropped as ["ttl exceeded"]. *)
let data_ttl = 64

(** The IP header's bytes, carried by a data frame on every hop. *)
let ip_overhead = 20

(** How long a duplicate cache remembers a flooded message, s (AODV, LDR,
    DSR and OLSR; SRP keeps its requests for its DELETE_PERIOD). *)
let seen_lifetime = 30.0

(** The longest a node holds a flooded message before relaying it, s; the
    delay is drawn uniformly below it. *)
let relay_jitter = 0.01

type ctx = {
  id : int;
  node_count : int;
  engine : Des.Engine.t;
  rng : Des.Rng.t;
  trace : Trace.t;
      (** structured telemetry sink; {!Trace.null} when tracing is off *)
  mac_send : Wireless.Frame.t -> unit;
  deliver : Wireless.Frame.data -> unit;
      (** call when a data packet reaches its final destination *)
  drop_data : Wireless.Frame.data -> reason:string -> unit;
      (** call when the routing layer gives up on a data packet *)
}

(** Protocol-specific gauges, sampled at the end of a run and periodically
    by the gauge time series. [own_seqno] feeds Fig. 7 (zero-based:
    subtract the protocol's initial value, as the paper does for SRP).
    [max_denominator] and [seqno_resets] apply to SRP only and are 0
    elsewhere. [route_entries] counts currently usable routes and
    [pending_packets] data packets parked awaiting discovery; sampling
    either must not mutate protocol state. *)
type gauges = {
  own_seqno : int;
  max_denominator : int;
  seqno_resets : int;
  label_width_bits : int;
      (** high-water encoded label width (SRP; 0 elsewhere) *)
  label_resets : int;
      (** seqno resets forced by label exhaustion — the T-bit /
          MAX_DENOM-probe subset of [seqno_resets] (SRP; 0 elsewhere) *)
  route_entries : int;
  pending_packets : int;
}

type agent = {
  originate : Wireless.Frame.data -> size:int -> unit;
      (** the application hands over a data packet for [data.final_dst] *)
  receive : src:int -> Wireless.Frame.t -> unit;
      (** the MAC delivered a frame ([src] is the previous hop) *)
  unicast_failed : frame:Wireless.Frame.t -> dst:int -> unit;
      (** MAC retry limit exhausted toward next hop [dst] *)
  unicast_ok : frame:Wireless.Frame.t -> dst:int -> unit;
      (** a unicast frame was acknowledged (route-liveness hint) *)
  gauges : unit -> gauges;
}

let no_gauges =
  {
    own_seqno = 0;
    max_denominator = 0;
    seqno_resets = 0;
    label_width_bits = 0;
    label_resets = 0;
    route_entries = 0;
    pending_packets = 0;
  }
