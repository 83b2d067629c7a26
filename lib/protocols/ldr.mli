(** LDR baseline (Garcia-Luna-Aceves, Mosko, Perkins — PODC 2003): on-demand
    routing ordered by a {e numeric} feasible distance plus a
    destination-controlled sequence number.

    A successor is feasible iff it reports a higher sequence number, or an
    equal one with a strictly smaller feasible distance (the DUAL/SNC
    ordering). Broken routes often repair locally — any neighbour whose
    label is in-order can answer — but when orderings cannot be stitched
    the request must reach the destination, which issues a reply with a
    larger sequence number that resets feasible distances along the reply
    path (the behaviour SRP §I describes and improves on by making the
    distance {e sub-divisible}). Sequence numbers therefore grow slower
    than AODV's but are not identically zero like SRP's (Fig. 7). The
    feasibility rule, the messages and their handlers are this module's;
    the state, frame builders, relay, data forwarding, request ring and
    engagement table it shares with AODV and SRP are {!Ondemand}'s.

    The paper runs LDR at one parameter set, so nothing here is tunable: the
    message sizes are constants of this module, and the ring schedule, route
    lifetime, relay jitter and route-error size are {!Ondemand}'s. [config]
    remains, with {!default_config} its only value: [Sim.Config.t] holds one
    per protocol, and callers pass it to {!create} as they pass SRP's. *)

type config

val default_config : config

(** A node label: sequence number and integer feasible distance. *)
type label = { sn : int; fd : int }

type rreq = {
  rq_src : int;
  rq_id : int;
  rq_dst : int;
  rq_label : label option;  (** [None] = requester unassigned *)
  rq_reset : bool;
  rq_hops : int;
  rq_ttl : int;
}

type rrep = {
  rp_src : int;
  rp_id : int;
  rp_dst : int;
  rp_label : label;  (** the advertiser's own label for [rp_dst] *)
  rp_dist : int;  (** measured distance *)
  rp_lifetime : float;
}

type rerr = { re_unreachable : int list }

type Wireless.Frame.payload +=
  | Rreq of rreq
  | Rrep of rrep
  | Rerr of rerr

(** [feasible ~own ~adv] — is a successor advertising [adv] in-order for a
    node whose label is [own]? ([own = None] accepts anything.) *)
val feasible : own:label option -> adv:label -> bool

val create : ?config:config -> Routing_intf.ctx -> Routing_intf.agent

(** {2 White-box inspection for tests} *)

type t

val create_full : Routing_intf.ctx -> t * Routing_intf.agent

val own_seqno : t -> int

val label_for : t -> dst:int -> label option

val next_hop : t -> dst:int -> int option
