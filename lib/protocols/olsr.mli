(** OLSR baseline (Clausen et al. — draft-ietf-manet-olsr-06), simplified:
    periodic HELLOs for link sensing and neighbour discovery, greedy MPR
    (multipoint relay) selection covering the two-hop neighbourhood, TC
    messages flooded through MPRs only, and proactive shortest-path route
    computation over the learned topology.

    As in the paper, OLSR does {e not} use link-layer loss detection — links
    die only by HELLO timeout — which costs delivery under mobility while
    its always-ready routes buy the lowest latency. Its schedule-driven
    control traffic is mobility-independent (flat line in Fig. 5).

    The paper runs OLSR at one parameter set, so nothing here is tunable:
    HELLOs every 2 s and TCs every 5 s, each period shortened by up to a
    quarter, and the message sizes are constants of this module; the hop
    limit and the IP header are {!Routing_intf}'s. [config] remains, with
    {!default_config} its only value: [Sim.Config.t] holds one per protocol,
    and callers pass it to {!create} as they pass SRP's. *)

type config

val default_config : config

(** How long a neighbour stays valid after its last HELLO, s (3 × the
    HELLO period). *)
val neighbor_hold : float

(** How long a topology entry stays valid after the last TC that
    advertised it, s (3 × the TC period). *)
val topology_hold : float

type hello = {
  h_origin : int;
  h_links : (int * bool * bool) list;
      (** (neighbour, symmetric?, chosen-as-MPR?) *)
}

type tc = { t_origin : int; t_ansn : int; t_advertised : int list }

type Wireless.Frame.payload += Hello of hello | Tc of tc

val create : ?config:config -> Routing_intf.ctx -> Routing_intf.agent

(** {2 White-box inspection for tests} *)

type t

val create_full : Routing_intf.ctx -> t * Routing_intf.agent

(** Current symmetric neighbours. *)
val sym_neighbors : t -> int list

(** Current MPR set. *)
val mprs : t -> int list

(** The route table is recomputed only after a HELLO or a new TC; between
    control messages the last table is served, even past its entries'
    expiry. [None] for any [dst] without a route, including the agent's
    own id and ids outside [\[0, ctx.node_count)]. Node ids carried by
    HELLO/TC messages must lie in that range. That includes TC originators,
    which index the agent's topology set. *)
val next_hop : t -> dst:int -> int option
