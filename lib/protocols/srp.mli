(** SRP — the Split-label Routing Protocol (paper §III).

    Node labels are {!Slr.Ordering.t} values [(sn, m/n)]: a
    destination-controlled sequence number plus a feasible-distance proper
    fraction. Route requests flood with the path-minimum label (Eq. 10) and
    the reset-required bit maintained per Eq. 11; replies walk the cached
    reverse path while each node relabels itself with Algorithm 1
    ({!Slr.New_order}). Implemented per the paper, including:

    - the RREQ advertisement piece that builds labelled reverse routes to
      the source, with the N bit when a relay cannot advertise;
    - the D-bit unicast probe used for [MAX_DENOM] path resets and for
      N-bit replies (the source bumps its own sequence number first);
    - the destination-side sequence-number reset on the T (reset-required)
      bit — the only way sequence numbers ever change;
    - the §V heuristics: expanding-ring search, a packet cache that resends
      data after a link-layer loss, the minimum-reply-hops guard against
      false-positive RREPs, and the RREQ ordering "lie"
      [(p-1)/(q-1)] (or [(pk-1)/(qk-1)] when [p = 1]).

    SRP is inherently multi-path: the successor table keeps every feasible
    successor; uni-path forwarding (the paper's simulated variant) picks
    from the min-hop set. The orderings, successor set, RACK, probe and
    handlers are this module's; the state, frame builders, relay, data
    forwarding, request ring and engagement table it shares with AODV and
    LDR are {!Ondemand}'s.

    Its [config] holds only what a caller sets: the label set (the CLI's
    [--labels], the fuzzer), the three §V heuristics the E8b ablation
    varies, and [MAX_DENOM], which the E9 label-set showdown tightens. The
    RACK timing and the message sizes are constants of this module, and
    the ring schedule, route lifetime, relay jitter and route-error size
    are {!Ondemand}'s. *)

type config = {
  max_denom : int;  (** MAX_DENOM reset threshold (paper: 1e9) *)
  min_reply_hops : int;  (** RREQs travel this far before SDC replies *)
  lie_k : int;  (** k of the ordering-lie heuristic (paper: 10000) *)
  labels : Slr.Label_set.id;
      (** the dense label set the protocol mints feasible distances from:
          bounded mediant fractions (the paper's SRP, the default),
          minimal-denominator Farey interpolation (the §VI future-work
          extension; see the E8a ablation), unbounded fractions, or
          lexicographic byte strings. Orthogonal to every other knob. *)
  probe_on_n : bool;
      (** send the D-bit probe (with an own-seqno bump) when a reply carries
          the N bit. Needed only by bidirectional workloads; off by default
          to match the paper's unidirectional CBR evaluation. *)
}

val default_config : config

(** SRP control messages, exposed for white-box protocol tests. *)
type rreq = {
  rq_src : int;
  rq_id : int;
  rq_dst : int;
  rq_order : Slr.Ordering.t;  (** solicitation ordering [O_#] *)
  rq_u : bool;  (** U: no stored ordering for the destination *)
  rq_rr : bool;  (** T: reset required *)
  rq_d : bool;  (** D: unicast probe to the destination *)
  rq_n : bool;  (** N: no longer an advertisement for the source *)
  rq_hops : int;  (** measured distance [d] *)
  rq_ttl : int;
  rq_adv : rreq_adv option;  (** advertisement piece; [None] iff N *)
}

and rreq_adv = { ra_order : Slr.Ordering.t; ra_dist : int }

type rrep = {
  rp_src : int;  (** the requester — terminus of the advertisement *)
  rp_id : int;
  rp_dst : int;  (** destination being advertised *)
  rp_order : Slr.Ordering.t;  (** [O_?] = (dstseqno, LF) *)
  rp_dist : int;  (** last-hop measured distance [ld] *)
  rp_lifetime : float;
  rp_n : bool;
}

type rerr = { re_unreachable : int list }

(** Reply acknowledgment: unicast RREPs are retransmitted with binary
    exponential backoff, from 0.1 s, until the next hop RACKs them (at
    most two resends) — §III's acknowledged-reply hardening, which keeps
    lost replies from stalling a discovery for a whole ring timeout. *)
type rack = { k_src : int; k_id : int }

type Wireless.Frame.payload +=
  | Rreq of rreq
  | Rrep of rrep
  | Rerr of rerr
  | Rack of rack

val create : ?config:config -> Routing_intf.ctx -> Routing_intf.agent

(** {2 White-box inspection for tests} *)

type t

(** Like {!create} but also returns the concrete state handle. *)
val create_full :
  ?config:config -> Routing_intf.ctx -> t * Routing_intf.agent

(** This node's current ordering for a destination
    ({!Slr.Ordering.unassigned} when none). *)
val ordering : t -> dst:int -> Slr.Ordering.t

(** Current feasible successors for a destination with their recorded
    orderings. *)
val successor_orderings : t -> dst:int -> (int * Slr.Ordering.t) list

val has_active_route : t -> dst:int -> bool

(** This node's own (destination-controlled) sequence number. *)
val own_seqno : t -> int

(** [on_route_change t f] registers [f dst], fired after every route-table
    mutation for [dst] — label adoption, successor elimination, link loss,
    RERR processing. The online loop-invariant monitor hangs off this. *)
val on_route_change : t -> (int -> unit) -> unit
