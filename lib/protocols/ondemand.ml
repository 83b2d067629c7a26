(** The AODV-style RREQ/RREP/RERR exchange (DESIGN S7, S8, S10) that the
    loop-freedom disciplines of SRP, AODV and LDR (Fig. 7) ride: their
    shared state, message builders, relay, forwarding and engagement
    table. Each agent keeps its messages, route record, ordering and
    handlers, and gives {!Make} what forwarding needs of its routes. *)

module Frame = Wireless.Frame

(* The shared constants: the expanding-ring TTL schedule; how long a
   route (SRP: a successor) stays usable once learnt or used, s; the bytes
   of a route error; and DELETE_PERIOD, s, how long an engagement outlives
   its request and SRP keeps the label of a destination it has no
   successor for (Definition 3). *)
let ttls = [ 1; 3; 7; 16 ]
let route_lifetime = 10.0
let rerr_size = 32
let delete_period = 60.0

(** An agent's state: its node's capabilities, route table by destination
    (['route], precursors included), duplicate-request cache, route
    requests, own sequence number and request counter, the route-change
    listener (the online loop monitor's hook, fired with the destination
    after a route mutation) and, in [ext], the rest of its state. *)
type ('route, 'ext) t = {
  ctx : Routing_intf.ctx;
  routes : (int, 'route) Hashtbl.t;
  seen : Seen_cache.t;
  discovery : Discovery.t;
  mutable self_seqno : int;
  mutable next_rreq_id : int;
  mutable listener : int -> unit;
  ext : 'ext;
}

let now t = Des.Engine.now t.ctx.Routing_intf.engine

(** A control frame from this node, tagged [kind] (["rreq"], ["rrep"],
    ["rerr"], ["rack"]) for the per-kind accounting. *)
let control_frame t ~dst ~size ~kind payload =
  Frame.with_kind
    (Frame.make ~src:t.ctx.Routing_intf.id ~dst ~size ~payload)
    kind

let send t ~dst ~size ~kind payload =
  t.ctx.Routing_intf.mac_send (control_frame t ~dst ~size ~kind payload)

(** Is the request [(src, id)] another node's, seen here for the first
    time? Records it; a request that fails this test is ignored. *)
let first_sight t ~src ~id =
  src <> t.ctx.Routing_intf.id && Seen_cache.witness t.seen ~origin:src ~id

(** A relay's reverse-path state for one request (LDR, SRP): what the
    solicitation carried that the reply will need (SRP's ordering C; LDR
    needs nothing), the hop it came from, when, and whether a reply
    already went back. *)
type 'cached engagement = {
  e_cached : 'cached;
  e_last_hop : int;
  e_time : float;
  mutable e_replied : bool;
}

type 'cached engagements = (int * int, 'cached engagement) Hashtbl.t

let engagements () : _ engagements = Hashtbl.create 64

(** Records the request [(src, id)]. Engagements must outlive any
    in-flight reply; anything older than DELETE_PERIOD is dead. Amortised:
    once the table holds more than 4,096, each call first sweeps. *)
let engage t table ~src ~id ~cached ~last_hop =
  if Hashtbl.length table > 4096 then begin
    let horizon = now t -. delete_period in
    let dead =
      Hashtbl.fold
        (fun key e acc -> if e.e_time < horizon then key :: acc else acc)
        table []
    in
    List.iter (Hashtbl.remove table) dead
  end;
  Hashtbl.replace table (src, id)
    { e_cached = cached; e_last_hop = last_hop; e_time = now t;
      e_replied = false }

let engagement table ~src ~id = Hashtbl.find_opt table (src, id)

(** What the shared plumbing needs of an agent's routes and messages:
    [span] ([proto.<name>.timer]) runs its relays; [fresh] is a
    destination's record before anything is known of it; [usable] tells
    whether a route can carry data at a time (the [route_entries] gauge);
    [next_hop] is where a data packet for a destination goes, [-1] with no
    usable route, and [refresh] keeps that route alive as a packet leaves
    on it; [unreachable] is how a relay with no route reports a
    destination, one entry of the [rerr] payload. *)
module type DISCIPLINE = sig
  type route
  type ext
  type unreachable

  val span : Obs.span
  val fresh : (route, ext) t -> route
  val usable : float -> route -> bool
  val next_hop : (route, ext) t -> int -> int
  val refresh : (route, ext) t -> int -> next_hop:int -> unit
  val unreachable : (route, ext) t -> int -> unreachable
  val rerr : unreachable list -> Frame.payload
end

module Make (D : DISCIPLINE) = struct
  (** The destination's record, made by [D.fresh] on first use. *)
  let route_for t dst =
    match Hashtbl.find_opt t.routes dst with
    | Some r -> r
    | None ->
        let r = D.fresh t in
        Hashtbl.replace t.routes dst r;
        r

  (** The destination's record while it holds a usable route. *)
  let valid_route t dst =
    match Hashtbl.find_opt t.routes dst with
    | Some r when D.usable (now t) r -> Some r
    | Some _ | None -> None

  (** A route error for [entries]; nothing when there are none. *)
  let send_rerr t entries ~to_ =
    if entries <> [] then
      send t ~dst:to_ ~size:rerr_size ~kind:"rerr" (D.rerr entries)

  (** Rebroadcasts a flooded request after a delay of up to
      {!Routing_intf.relay_jitter}, drawn now. *)
  let relay t ~size ~kind payload =
    let frame = control_frame t ~dst:Frame.Broadcast ~size ~kind payload in
    let delay =
      Des.Rng.float t.ctx.Routing_intf.rng Routing_intf.relay_jitter
    in
    ignore
      (Des.Engine.schedule ~span:D.span t.ctx.Routing_intf.engine ~delay
         (fun () -> t.ctx.Routing_intf.mac_send frame))

  (** Sends a packet of [size] payload bytes on toward its destination;
      [false] when there is no route. One that would pass
      {!Routing_intf.data_ttl} hops is dropped as ["ttl exceeded"]
      instead, and counts as routed. *)
  let forward t data ~size =
    let dst = data.Frame.final_dst in
    let next_hop = D.next_hop t dst in
    if next_hop < 0 then false
    else begin
      data.Frame.hops <- data.Frame.hops + 1;
      if data.Frame.hops > Routing_intf.data_ttl then
        t.ctx.Routing_intf.drop_data data ~reason:"ttl exceeded"
      else begin
        D.refresh t dst ~next_hop;
        Trace.pkt_forward t.ctx.Routing_intf.trace ~node:t.ctx.Routing_intf.id
          ~flow:data.Frame.flow ~seq:data.Frame.seq ~next:next_hop;
        t.ctx.Routing_intf.mac_send
          (Frame.make ~src:t.ctx.Routing_intf.id
             ~dst:(Frame.Unicast next_hop)
             ~size:(size + Routing_intf.ip_overhead)
             ~payload:(Frame.Data data))
      end;
      true
    end

  (** The application's packet: delivered here, forwarded, or parked
      while its route is requested. *)
  let originate t data ~size =
    let dst = data.Frame.final_dst in
    if dst = t.ctx.Routing_intf.id then t.ctx.Routing_intf.deliver data
    else if not (forward t data ~size) then
      Discovery.park t.discovery ~dst data ~size

  (** After [frame] exhausted its MAC retries: parks the data packet it
      carried while a new route is requested, after one more {!forward}
      when [retry] (SRP's other successors). Returns the packet's
      destination, [-1] for a control frame. *)
  let salvage t frame ~retry =
    match frame.Frame.payload with
    | Frame.Data data ->
        let size = frame.Frame.size - Routing_intf.ip_overhead in
        let dst = data.Frame.final_dst in
        if not (retry && forward t data ~size) then
          Discovery.park t.discovery ~dst data ~size;
        dst
    | _ -> -1

  (** A received frame: data is delivered, forwarded, or dropped as ["no
      route at relay"] after a route error back to [src]; [control] takes
      every other payload. *)
  let receive t ~control ~src frame =
    match frame.Frame.payload with
    | Frame.Data data ->
        let dst = data.Frame.final_dst in
        if dst = t.ctx.Routing_intf.id then t.ctx.Routing_intf.deliver data
        else
          let size = frame.Frame.size - Routing_intf.ip_overhead in
          if not (forward t data ~size) then begin
            send_rerr t [ D.unreachable t dst ] ~to_:(Frame.Unicast src);
            t.ctx.Routing_intf.drop_data data ~reason:"no route at relay"
          end
    | payload -> control t ~src payload

  (** Destinations with a usable route. Read-only: gauge sampling must not
      perturb the protocol. *)
  let route_entries t =
    let time = now t in
    Hashtbl.fold
      (fun _ r acc -> if D.usable time r then acc + 1 else acc)
      t.routes 0

  (** An agent and its handlers: empty tables, a duplicate cache that
      forgets after [seen_ttl] s, and route requests on {!ttls}, of which
      [send] issues one attempt and [give_up] runs when one is abandoned.
      [control] handles every frame but data. None of the three uses
      [unicast_ok]. *)
  let create ctx ~ext ~self_seqno ~seen_ttl ~send ~give_up ~control
      ~unicast_failed ~gauges =
    let engine = ctx.Routing_intf.engine in
    (* the request callbacks need the agent that holds them *)
    let self = ref None in
    let t =
      {
        ctx;
        routes = Hashtbl.create 32;
        seen = Seen_cache.create engine ~ttl:seen_ttl;
        discovery =
          Discovery.create engine ~ttls ~capacity:Discovery.capacity
            ~hold:Discovery.hold
            ~send:(fun ~dst ~ttl ~attempt ->
              send (Option.get !self) ~dst ~ttl ~attempt)
            ~give_up:(fun ~dst -> give_up (Option.get !self) ~dst)
            ~forward:(fun data ~size -> forward (Option.get !self) data ~size)
            ~drop:ctx.Routing_intf.drop_data;
        self_seqno;
        next_rreq_id = 0;
        listener = ignore;
        ext;
      }
    in
    self := Some t;
    ( t,
      {
        Routing_intf.originate = originate t;
        receive = receive t ~control;
        unicast_failed = unicast_failed t;
        unicast_ok = (fun ~frame:_ ~dst:_ -> ());
        gauges = (fun () -> gauges t);
      } )
end
