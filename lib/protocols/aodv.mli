(** AODV baseline (Perkins, Belding-Royer, Das — draft-ietf-manet-aodv-10),
    simplified to the features the paper's comparison exercises: per-node
    sequence numbers incremented on every RREQ origination and on
    destination replies, destination-sequence-number route freshness,
    expanding-ring search, reverse/forward route construction, precursor
    lists with RERR propagation, link-layer loss detection, and local
    repair (a fresh discovery from the point of failure requesting
    [last known seqno + 1]).

    AODV's sequence number is its only loop-freedom mechanism, which is why
    Fig. 7 shows it growing far faster than LDR's or SRP's. That rule, the
    messages and their handlers are this module's; the state, frame
    builders, relay, data forwarding and request ring it shares with LDR
    and SRP are {!Ondemand}'s.

    The paper runs AODV at one parameter set, so nothing here is tunable:
    the message sizes are constants of this module, and the ring schedule,
    route lifetime, relay jitter and route-error size are {!Ondemand}'s.
    [config] remains, with {!default_config} its only value: [Sim.Config.t]
    holds one per protocol, and callers pass it to {!create} as they pass
    SRP's. *)

type config

val default_config : config

(** A route reply's size, bytes. *)
val rrep_size : int

type rreq = {
  rq_src : int;
  rq_src_seqno : int;
  rq_id : int;
  rq_dst : int;
  rq_dst_seqno : int option;  (** [None] = unknown (U bit) *)
  rq_hops : int;
  rq_ttl : int;
}

type rrep = {
  rp_src : int;
  rp_dst : int;
  rp_dst_seqno : int;
  rp_hops : int;
  rp_lifetime : float;
}

type rerr = { re_unreachable : (int * int) list  (** (dst, seqno) *) }

type Wireless.Frame.payload +=
  | Rreq of rreq
  | Rrep of rrep
  | Rerr of rerr

val create : ?config:config -> Routing_intf.ctx -> Routing_intf.agent

(** {2 White-box inspection for tests} *)

type t

val create_full : Routing_intf.ctx -> t * Routing_intf.agent

val own_seqno : t -> int

val next_hop : t -> dst:int -> int option

val route_seqno : t -> dst:int -> int option

(** [on_route_change t f] — [f dst] fires after every route-table mutation
    for [dst]: adoption of a fresher or shorter route, and invalidation by
    RERR or link-layer loss. One callback per instance (latest wins); used
    by the fuzz monitors to check loop freedom at mutation granularity. *)
val on_route_change : t -> (int -> unit) -> unit
