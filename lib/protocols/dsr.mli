(** DSR baseline (Johnson, Maltz, Hu, Jetcheva — draft-ietf-manet-dsr-07),
    simplified: network-wide route-request floods accumulating the traversed
    path, replies carrying complete source routes, a per-node path cache
    with intermediate-node cached replies, source-routed data forwarding
    (the route rides in every data packet and inflates its airtime), packet
    salvaging after link-layer loss, and source-routed route errors.

    Under the paper's high-load, high-mobility scenarios DSR's stale cached
    routes and salvage traffic produce the collapse seen in Figs. 3–4.

    The paper runs DSR at one parameter set, so nothing here is tunable:
    three 16-hop request floods, at most 64 cached paths per node living
    30 s each, two salvages per packet, and a source route of 4 bytes plus
    4 per listed hop are constants of this module; the hop limit and the
    IP header are {!Routing_intf}'s. [config] remains, with
    {!default_config} its only value: [Sim.Config.t] holds one per
    protocol, and callers pass it to {!create} as they pass SRP's. *)

type config

val default_config : config

type rreq = {
  rq_src : int;
  rq_id : int;
  rq_dst : int;
  rq_record : int list;  (** traversed path, source first *)
  rq_ttl : int;
}

type rrep = {
  rp_path : int list;  (** complete route, source first, destination last *)
  rp_back : int list;  (** remaining reverse hops; head is the next hop *)
}

(** Source-routed data: [route] is the full path (source first), [idx] the
    position of the node currently holding the packet. *)
type dsr_data = {
  dd_data : Wireless.Frame.data;
  dd_route : int list;
  dd_idx : int;
  dd_salvaged : int;
}

type rerr = {
  re_broken : int * int;  (** the dead link (from, to) *)
  re_back : int list;  (** remaining reverse hops toward the source *)
}

type Wireless.Frame.payload +=
  | Rreq of rreq
  | Rrep of rrep
  | Dsr_data of dsr_data
  | Rerr of rerr

val create : ?config:config -> Routing_intf.ctx -> Routing_intf.agent

(** {2 White-box inspection for tests} *)

type t

val create_full : Routing_intf.ctx -> t * Routing_intf.agent

(** Best (shortest live) cached path from this node to [dst], if any. *)
val cached_path : t -> dst:int -> int list option
