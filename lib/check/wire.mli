(** A message-passing harness for routing agents with {e scripted} delivery:
    perfect point-to-point links over an explicit topology, deterministic
    per-frame latency plus RNG-substream jitter, a frame filter for exact
    loss scripts, and direct injection of forged frames.

    This sits between the abstract executor ({!Slr.Simple_net}) and the full
    simulator: real protocol agents exchange real frames, but the medium is
    a programmable test double — no MAC contention, no mobility — so a test
    can pin one precise interleaving (the van Glabbeek AODV replay) or fuzz
    millions of them (random jitter and loss), and every run is a pure
    function of the RNG substream. *)

type t

(** [create ~engine ~rng ~nodes ()] — no links, no agents yet.
    [latency] (default 0.01 s) is the fixed per-hop delay; [jitter]
    (default 0) adds a uniform extra delay drawn per frame. *)
val create :
  engine:Des.Engine.t ->
  rng:Des.Rng.t ->
  nodes:int ->
  ?latency:float ->
  ?jitter:float ->
  unit ->
  t

(** The capability record to hand to an agent's [create]; [trace] is null.
    Delivered data packets and routing drops are recorded in the harness. *)
val ctx : t -> int -> Protocols.Routing_intf.ctx

(** Register the agent built from {!ctx}. Must happen before any frame it
    should receive is delivered. *)
val set_agent : t -> int -> Protocols.Routing_intf.agent -> unit

val add_link : t -> int -> int -> unit

val remove_link : t -> int -> int -> unit

(** [set_filter t f] — a frame from [src] to [dst] is delivered only when
    [f ~src ~dst frame] is [true] (and the link exists). The default filter
    accepts everything. Returning [false] on a unicast frame triggers the
    sender's [unicast_failed], exactly like a broken link. *)
val set_filter :
  t -> (src:int -> dst:int -> frame:Wireless.Frame.t -> bool) -> unit

(** [inject t ~from ~at frame] hands [frame] to node [at]'s receive handler
    as if neighbour [from] had transmitted it — for adversarial replays of
    interleavings our own agents would not produce. Bypasses links and the
    filter; delivered immediately. *)
val inject : t -> from:int -> at:int -> Wireless.Frame.t -> unit

(** Data packets delivered to their final destination: (node, packet). *)
val delivered : t -> (int * Wireless.Frame.data) list

(** Routing-layer drops: (node, packet, reason). *)
val dropped : t -> (int * Wireless.Frame.data * string) list
