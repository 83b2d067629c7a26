(** OLSR baseline (Clausen et al. — draft-ietf-manet-olsr-06), simplified:
    periodic HELLOs for link sensing and neighbour discovery, greedy MPR
    (multipoint relay) selection covering the two-hop neighbourhood, TC
    messages flooded through MPRs only, and proactive shortest-path route
    computation over the learned topology.

    As in the paper, OLSR does {e not} use link-layer loss detection — links
    die only by HELLO timeout — which costs delivery under mobility while
    its always-ready routes buy the lowest latency. Its schedule-driven
    control traffic is mobility-independent (flat line in Fig. 5). *)

type config = {
  hello_interval : float;
  tc_interval : float;
  neighbor_hold : float;  (** neighbour validity (3 × hello) *)
  topology_hold : float;  (** topology-entry validity (3 × tc) *)
  jitter : float;  (** max random shortening of each period *)
  data_ttl : int;
  hello_base_size : int;
  tc_base_size : int;
  per_entry_bytes : int;
  ip_overhead : int;
}

val default_config : config

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

val create_full :
  ?config:config -> Routing_intf.ctx -> t * Routing_intf.agent

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
