let span_timer = Obs.span "proto.dsr.timer"

module Frame = Wireless.Frame

type config = unit

let default_config = ()

(* A route request floods to 16 hops, up to three times ([ttls]). A node
   caches at most [cache_capacity] paths, each for [cache_lifetime] s; a
   packet is salvaged at most [max_salvages] times; a relayed request
   waits up to [relay_jitter] s. A control packet is [base_control_size]
   bytes, a data packet's source-route header [route_header], and either
   grows by [per_hop_bytes] per listed hop. *)
let ttls = [ 16; 16; 16 ]
let cache_capacity = 64
let cache_lifetime = 30.0
let max_salvages = 2
let relay_jitter = 0.01
let base_control_size = 24
let route_header = 4
let per_hop_bytes = 4

type rreq = {
  rq_src : int;
  rq_id : int;
  rq_dst : int;
  rq_record : int list;
  rq_ttl : int;
}

type rrep = { rp_path : int list; rp_back : int list }

type dsr_data = {
  dd_data : Frame.data;
  dd_route : int list;
  dd_idx : int;
  dd_salvaged : int;
}

type rerr = { re_broken : int * int; re_back : int list }

type Frame.payload +=
  | Rreq of rreq
  | Rrep of rrep
  | Dsr_data of dsr_data
  | Rerr of rerr

(* Path cache: complete paths from this node, shortest live path wins. *)
type cached = { path : int list; expiry : float }

type t = {
  ctx : Routing_intf.ctx;
  mutable cache : cached list;
  seen : Seen_cache.t;
  discovery : Discovery.t;
  mutable next_rreq_id : int;
}

let now t = Des.Engine.now t.ctx.Routing_intf.engine

(* ------------------------------------------------------------------ *)
(* Path cache                                                          *)

let path_has_link path (a, b) =
  let rec scan = function
    | x :: (y :: _ as rest) -> (x = a && y = b) || (x = b && y = a) || scan rest
    | [ _ ] | [] -> false
  in
  scan path

let rec path_loops_free seen = function
  | [] -> true
  | x :: rest -> (not (List.mem x seen)) && path_loops_free (x :: seen) rest

let cache_add t path =
  (* [path] starts at this node; reject degenerate or looping paths *)
  match path with
  | [] | [ _ ] -> ()
  | first :: _ when first <> t.ctx.Routing_intf.id -> ()
  | _ when not (path_loops_free [] path) -> ()
  | _ ->
      let time = now t in
      let live = List.filter (fun c -> c.expiry > time) t.cache in
      if List.exists (fun c -> c.path = path) live then t.cache <- live
      else begin
        let entry = { path; expiry = time +. cache_lifetime } in
        let trimmed =
          if List.length live >= cache_capacity then
            (* evict the entry closest to expiry *)
            match
              List.sort (fun a b -> compare a.expiry b.expiry) live
            with
            | _oldest :: rest -> rest
            | [] -> []
          else live
        in
        t.cache <- entry :: trimmed
      end

let cached_path t ~dst =
  let time = now t in
  let candidates =
    List.filter
      (fun c ->
        c.expiry > time
        &&
        match List.rev c.path with last :: _ -> last = dst | [] -> false)
      t.cache
  in
  match
    List.sort
      (fun a b -> compare (List.length a.path) (List.length b.path))
      candidates
  with
  | best :: _ -> Some best.path
  | [] -> None

(* A path through an intermediate node also caches its suffix: if [dst]
   appears inside a cached path, the tail from this node works too. *)
let cached_path_via t ~dst =
  match cached_path t ~dst with
  | Some p -> Some p
  | None ->
      let time = now t in
      let rec prefix_to acc = function
        | [] -> None
        | x :: _ when x = dst -> Some (List.rev (x :: acc))
        | x :: rest -> prefix_to (x :: acc) rest
      in
      let candidates =
        List.filter_map
          (fun c -> if c.expiry > time then prefix_to [] c.path else None)
          t.cache
      in
      (match
         List.sort (fun a b -> compare (List.length a) (List.length b))
           candidates
       with
      | best :: _ -> Some best
      | [] -> None)

let cache_remove_link t link =
  t.cache <- List.filter (fun c -> not (path_has_link c.path link)) t.cache

let cache_size t =
  let time = now t in
  List.length (List.filter (fun c -> c.expiry > time) t.cache)

(* ------------------------------------------------------------------ *)
(* Frame builders                                                      *)

let control_size ~hops = base_control_size + (per_hop_bytes * hops)

let send_control t ~dst ~size ~payload =
  let kind =
    match payload with
    | Rreq _ -> "rreq"
    | Rrep _ -> "rrep"
    | Rerr _ -> "rerr"
    | _ -> "ctl"
  in
  t.ctx.Routing_intf.mac_send
    (Frame.with_kind
       (Frame.make ~src:t.ctx.Routing_intf.id ~dst ~size ~payload)
       kind)

let data_size ~payload_size ~route_len =
  payload_size + Routing_intf.ip_overhead + route_header
  + (per_hop_bytes * route_len)

(* The payload bytes of a data frame carrying [dsr]: its size less what
   [data_size] added. *)
let payload_size frame dsr =
  frame.Frame.size - data_size ~payload_size:0
    ~route_len:(List.length dsr.dd_route)

let send_data t ~next_hop dsr ~payload_size =
  let frame =
    Frame.make ~src:t.ctx.Routing_intf.id ~dst:(Frame.Unicast next_hop)
      ~size:(data_size ~payload_size ~route_len:(List.length dsr.dd_route))
      ~payload:(Dsr_data dsr)
  in
  Trace.pkt_forward t.ctx.Routing_intf.trace ~node:t.ctx.Routing_intf.id
    ~flow:dsr.dd_data.Frame.flow ~seq:dsr.dd_data.Frame.seq ~next:next_hop;
  t.ctx.Routing_intf.mac_send (Frame.with_cls frame Frame.Data_frame)

(* Launch a data packet along [route] (which starts at this node). *)
let route_data t data ~size ~route ~salvaged =
  match route with
  | _me :: next :: _ ->
      data.Frame.hops <- data.Frame.hops + 1;
      if data.Frame.hops > Routing_intf.data_ttl then
        t.ctx.Routing_intf.drop_data data ~reason:"ttl exceeded"
      else
        send_data t ~next_hop:next
          { dd_data = data; dd_route = route; dd_idx = 1; dd_salvaged = salvaged }
          ~payload_size:size
  | _ -> t.ctx.Routing_intf.drop_data data ~reason:"degenerate source route"

let try_send t data ~size =
  match cached_path_via t ~dst:data.Frame.final_dst with
  | Some route ->
      route_data t data ~size ~route ~salvaged:0;
      true
  | None -> false

(* ------------------------------------------------------------------ *)
(* Route discovery                                                     *)

let originate_rreq t ~dst ~ttl =
  t.next_rreq_id <- t.next_rreq_id + 1;
  let rreq =
    {
      rq_src = t.ctx.Routing_intf.id;
      rq_id = t.next_rreq_id;
      rq_dst = dst;
      rq_record = [ t.ctx.Routing_intf.id ];
      rq_ttl = ttl;
    }
  in
  send_control t ~dst:Frame.Broadcast ~size:(control_size ~hops:1)
    ~payload:(Rreq rreq)

let send_rrep t ~path =
  (* the replier sits at the end of its reverse route *)
  match List.rev path with
  | _me :: (next :: _ as back) ->
      send_control t ~dst:(Frame.Unicast next)
        ~size:(control_size ~hops:(List.length path))
        ~payload:(Rrep { rp_path = path; rp_back = back })
  | _ -> ()

let handle_rreq t ~from:_ rreq =
  let me = t.ctx.Routing_intf.id in
  if rreq.rq_src = me || List.mem me rreq.rq_record then ()
  else if not (Seen_cache.witness t.seen ~origin:rreq.rq_src ~id:rreq.rq_id)
  then ()
  else begin
    let record = rreq.rq_record @ [ me ] in
    (* the reversed record is a route back to the source *)
    cache_add t (List.rev record);
    if rreq.rq_dst = me then send_rrep t ~path:record
    else begin
      match cached_path_via t ~dst:rreq.rq_dst with
      | Some tail when path_loops_free [] (record @ List.tl tail) ->
          (* cached-route reply: splice our cached path onto the record *)
          send_rrep t ~path:(record @ List.tl tail)
      | Some _ | None ->
          if rreq.rq_ttl > 1 then begin
            let relayed =
              { rreq with rq_record = record; rq_ttl = rreq.rq_ttl - 1 }
            in
            let delay = Des.Rng.float t.ctx.Routing_intf.rng relay_jitter in
            ignore
              (Des.Engine.schedule ~span:span_timer t.ctx.Routing_intf.engine ~delay
                 (fun () ->
                   send_control t ~dst:Frame.Broadcast
                     ~size:(control_size ~hops:(List.length record))
                     ~payload:(Rreq relayed)))
          end
    end
  end

(* Cache every suffix of the replied path that starts at this node. *)
let cache_from_path t path =
  let me = t.ctx.Routing_intf.id in
  let rec suffix = function
    | [] -> ()
    | x :: _ as tail when x = me -> cache_add t tail
    | _ :: rest -> suffix rest
  in
  suffix path

let handle_rrep t ~from:_ rrep =
  let me = t.ctx.Routing_intf.id in
  cache_from_path t rrep.rp_path;
  match rrep.rp_back with
  | x :: rest when x = me -> begin
      match rest with
      | [] -> (
          (* we are the source *)
          match rrep.rp_path with
          | src :: _ when src = me -> (
              match List.rev rrep.rp_path with
              | dst :: _ -> Discovery.succeed t.discovery ~dst
              | [] -> ())
          | _ -> ())
      | next :: _ ->
          send_control t ~dst:(Frame.Unicast next)
            ~size:(control_size ~hops:(List.length rrep.rp_path))
            ~payload:(Rrep { rrep with rp_back = rest })
    end
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Data plane and errors                                               *)

let handle_dsr_data t frame dsr =
  let me = t.ctx.Routing_intf.id in
  let data = dsr.dd_data in
  if data.Frame.final_dst = me then t.ctx.Routing_intf.deliver data
  else begin
    match List.nth_opt dsr.dd_route (dsr.dd_idx + 1) with
    | Some next_hop ->
        data.Frame.hops <- data.Frame.hops + 1;
        if data.Frame.hops > Routing_intf.data_ttl then
          t.ctx.Routing_intf.drop_data data ~reason:"ttl exceeded"
        else
          send_data t ~next_hop
            { dsr with dd_idx = dsr.dd_idx + 1 }
            ~payload_size:(payload_size frame dsr)
    | None -> t.ctx.Routing_intf.drop_data data ~reason:"route exhausted"
  end

let send_rerr t ~broken ~traversed =
  (* source-route the error back along the already-traversed prefix *)
  match List.rev traversed with
  | _me :: (next :: _ as back) ->
      send_control t ~dst:(Frame.Unicast next)
        ~size:(control_size ~hops:(List.length back))
        ~payload:(Rerr { re_broken = broken; re_back = back })
  | _ -> ()

let handle_rerr t ~from:_ rerr =
  let me = t.ctx.Routing_intf.id in
  cache_remove_link t rerr.re_broken;
  match rerr.re_back with
  | x :: (next :: _ as rest) when x = me ->
      send_control t ~dst:(Frame.Unicast next)
        ~size:(control_size ~hops:(List.length rest))
        ~payload:(Rerr { rerr with re_back = rest })
  | _ -> ()

let originate t data ~size =
  let dst = data.Frame.final_dst in
  if dst = t.ctx.Routing_intf.id then t.ctx.Routing_intf.deliver data
  else if try_send t data ~size then ()
  else Discovery.park t.discovery ~dst data ~size

let unicast_failed t ~frame ~dst:next_hop =
  let me = t.ctx.Routing_intf.id in
  cache_remove_link t (me, next_hop);
  match frame.Frame.payload with
  | Dsr_data dsr ->
      let data = dsr.dd_data in
      let size = payload_size frame dsr in
      (* salvaging: retry from our own cache a bounded number of times *)
      if dsr.dd_salvaged < max_salvages then begin
        match cached_path_via t ~dst:data.Frame.final_dst with
        | Some route ->
            route_data t data ~size ~route ~salvaged:(dsr.dd_salvaged + 1)
        | None ->
            let traversed =
              (* prefix of the route up to and including us *)
              List.filteri (fun i _ -> i <= dsr.dd_idx) dsr.dd_route
            in
            send_rerr t ~broken:(me, next_hop) ~traversed;
            if data.Frame.origin = me then
              Discovery.park t.discovery ~dst:data.Frame.final_dst data ~size
            else t.ctx.Routing_intf.drop_data data ~reason:"salvage failed"
      end
      else begin
        let traversed =
          List.filteri (fun i _ -> i <= dsr.dd_idx) dsr.dd_route
        in
        send_rerr t ~broken:(me, next_hop) ~traversed;
        t.ctx.Routing_intf.drop_data data ~reason:"salvage limit"
      end
  | _ -> ()

let gauges t =
  {
    Routing_intf.no_gauges with
    Routing_intf.route_entries = cache_size t;
    pending_packets = Discovery.parked t.discovery;
  }

let receive t ~src frame =
  match frame.Frame.payload with
  | Rreq rreq -> handle_rreq t ~from:src rreq
  | Rrep rrep -> handle_rrep t ~from:src rrep
  | Dsr_data dsr -> handle_dsr_data t frame dsr
  | Rerr rerr -> handle_rerr t ~from:src rerr
  | Frame.Data data ->
      (* plain data only reaches us if we originated to ourselves *)
      if data.Frame.final_dst = t.ctx.Routing_intf.id then
        t.ctx.Routing_intf.deliver data
  | _ -> ()

let create_full ctx =
  (* lazy ties the knot: the request callbacks need the agent holding them *)
  let rec t =
    lazy
      {
        ctx;
        cache = [];
        seen = Seen_cache.create ctx.Routing_intf.engine ~ttl:30.0;
        discovery =
          Discovery.create ctx.Routing_intf.engine ~ttls
            ~capacity:Discovery.capacity ~hold:Discovery.hold
            ~send:(fun ~dst ~ttl ~attempt:_ ->
              originate_rreq (Lazy.force t) ~dst ~ttl)
            ~give_up:(fun ~dst:_ -> ())
            ~forward:(fun data ~size -> try_send (Lazy.force t) data ~size)
            ~drop:ctx.Routing_intf.drop_data;
        next_rreq_id = 0;
      }
  in
  let t = Lazy.force t in
  ( t,
    {
      Routing_intf.originate = originate t;
      receive = receive t;
      unicast_failed = unicast_failed t;
      unicast_ok = (fun ~frame:_ ~dst:_ -> ());
      gauges = (fun () -> gauges t);
    } )

let create ?config:(_ : config option) ctx = snd (create_full ctx)
