(** Route requests for data packets that have no route, shared by the
    on-demand agents (SRP, AODV, LDR, DSR): the one place that decides what
    happens to a packet while its route is requested (Procedure 1 of the
    paper, and the same step in the baselines).

    Per destination it keeps the parked packets in arrival order, the
    request in progress and a hold-off. A request walks the TTL schedule
    with retry timeouts of [2 * ttl * node_traversal_time], doubling after
    every attempt (RFC 3561), and makes one more attempt at the last TTL
    (RREQ_RETRIES) before it gives up. Requests share a per-node token
    bucket (RREQ_RATELIMIT). A destination that was given up on enters a
    hold-off that doubles with each consecutive failure, so a partitioned
    destination cannot trigger request storms.

    Every packet the module drops leaves through [drop] with one of four
    reasons: ["pending-buffer overflow"] (the oldest parked packet, when a
    park finds the destination's queue full), ["pending-buffer expired"]
    ([hold] seconds after it was parked, by an engine timer, so a
    destination nobody asks about again still drains), ["route discovery
    failed"] (still parked when the request gives up) and ["no route after
    reply"] (refused by [forward] on {!succeed} or {!flush}). *)

type t

(** Parked packets per destination before the oldest is dropped (64). *)
val capacity : int

(** Seconds a parked packet waits before it expires (30). *)
val hold : float

(** [create engine ~ttls ~capacity ~hold ~send ~give_up ~forward ~drop].
    [send ~dst ~ttl ~attempt] transmits one request; [give_up ~dst] runs
    when a request is abandoned, before its parked packets are dropped;
    [forward data ~size] hands a parked packet back to the agent and
    returns [false] when it has no route after all.
    @raise Invalid_argument on an empty TTL schedule. *)
val create :
  Des.Engine.t ->
  ttls:int list ->
  capacity:int ->
  hold:float ->
  send:(dst:int -> ttl:int -> attempt:int -> unit) ->
  give_up:(dst:int -> unit) ->
  forward:(Wireless.Frame.data -> size:int -> bool) ->
  drop:(Wireless.Frame.data -> reason:string -> unit) ->
  t

(** [park t ~dst data ~size] buffers a packet for [dst], then issues the
    first request synchronously unless one is active or [dst] is held off. *)
val park : t -> dst:int -> Wireless.Frame.data -> size:int -> unit

(** [succeed t ~dst] stops the request for [dst] (a route was found), clears
    its hold-off, then forwards the parked packets in arrival order. *)
val succeed : t -> dst:int -> unit

(** [flush t ~dst] forwards the parked packets like {!succeed} but leaves the
    request running: a relay that learnt a route for its own packets. *)
val flush : t -> dst:int -> unit

(** Is a request currently active for [dst]? *)
val active : t -> dst:int -> bool

(** Parked packets across all destinations. Read-only (no expiry sweep), so
    it is safe to call from gauge sampling. *)
val parked : t -> int
