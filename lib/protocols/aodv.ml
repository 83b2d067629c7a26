let span_timer = Obs.span "proto.aodv.timer"

module Frame = Wireless.Frame

type config = {
  ttls : int list;
  route_lifetime : float;
  relay_jitter : float;
  data_ttl : int;
  rreq_size : int;
  rrep_size : int;
  rerr_size : int;
  ip_overhead : int;
}

let default_config =
  {
    ttls = [ 1; 3; 7; 16 ];
    route_lifetime = 10.0;
    relay_jitter = 0.01;
    data_ttl = 64;
    rreq_size = 44;
    rrep_size = 40;
    rerr_size = 32;
    ip_overhead = 20;
  }

type rreq = {
  rq_src : int;
  rq_src_seqno : int;
  rq_id : int;
  rq_dst : int;
  rq_dst_seqno : int option;
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

type rerr = { re_unreachable : (int * int) list }

type Frame.payload += Rreq of rreq | Rrep of rrep | Rerr of rerr

type route = {
  mutable seqno : int;
  mutable seqno_known : bool;
  mutable hops : int;
  mutable next_hop : int;
  mutable expiry : float;
  mutable valid : bool;
  precursors : (int, unit) Hashtbl.t;
}

type t = {
  ctx : Routing_intf.ctx;
  config : config;
  routes : (int, route) Hashtbl.t;
  seen : Seen_cache.t;
  discovery : Discovery.t;
  mutable self_seqno : int;
  mutable next_rreq_id : int;
  mutable on_change : int -> unit;  (** fires with the destination id *)
}

let now t = Des.Engine.now t.ctx.Routing_intf.engine

let route_for t dst =
  match Hashtbl.find_opt t.routes dst with
  | Some r -> r
  | None ->
      let r =
        {
          seqno = 0;
          seqno_known = false;
          hops = 0;
          next_hop = -1;
          expiry = 0.0;
          valid = false;
          precursors = Hashtbl.create 4;
        }
      in
      Hashtbl.replace t.routes dst r;
      r

let route_valid t r = r.valid && r.expiry > now t

let valid_route t dst =
  match Hashtbl.find_opt t.routes dst with
  | Some r when route_valid t r -> Some r
  | Some _ | None -> None

let refresh t r = r.expiry <- Stdlib.max r.expiry (now t +. t.config.route_lifetime)

(* Standard AODV update rule: accept fresher seqno, or same seqno with
   fewer hops, or anything when the current entry is invalid. *)
let update_route t ~dst ~seqno ~hops ~next_hop =
  let r = route_for t dst in
  let better =
    (not (route_valid t r))
    || (not r.seqno_known)
    || seqno > r.seqno
    || (seqno = r.seqno && hops < r.hops)
  in
  if better then begin
    r.seqno <- seqno;
    r.seqno_known <- true;
    r.hops <- hops;
    r.next_hop <- next_hop;
    r.valid <- true;
    refresh t r;
    t.on_change dst
  end;
  better

let control_frame t ~dst ~size ~payload =
  let kind =
    match payload with
    | Rreq _ -> "rreq"
    | Rrep _ -> "rrep"
    | Rerr _ -> "rerr"
    | _ -> "ctl"
  in
  Frame.with_kind (Frame.make ~src:t.ctx.Routing_intf.id ~dst ~size ~payload) kind

let send_rerr t ~entries ~to_ =
  if entries <> [] then
    t.ctx.Routing_intf.mac_send
      (control_frame t ~dst:to_ ~size:t.config.rerr_size
         ~payload:(Rerr { re_unreachable = entries }))

let data_frame t ~next_hop data ~size =
  Frame.make ~src:t.ctx.Routing_intf.id ~dst:(Frame.Unicast next_hop)
    ~size:(size + t.config.ip_overhead)
    ~payload:(Frame.Data data)

let forward_data t data ~size =
  match valid_route t data.Frame.final_dst with
  | None -> false
  | Some r ->
      data.Frame.hops <- data.Frame.hops + 1;
      if data.Frame.hops > t.config.data_ttl then begin
        t.ctx.Routing_intf.drop_data data ~reason:"ttl exceeded";
        true
      end
      else begin
        refresh t r;
        Trace.pkt_forward t.ctx.Routing_intf.trace ~node:t.ctx.Routing_intf.id
          ~flow:data.Frame.flow ~seq:data.Frame.seq ~next:r.next_hop;
        t.ctx.Routing_intf.mac_send (data_frame t ~next_hop:r.next_hop data ~size);
        true
      end

let requested_seqno t dst =
  match Hashtbl.find_opt t.routes dst with
  | Some r when r.seqno_known ->
      (* after a break, ask for something strictly fresher *)
      Some (if r.valid then r.seqno else r.seqno + 1)
  | Some _ | None -> None

let originate_rreq t ~dst ~ttl =
  (* a node MUST increment its own seqno before originating a RREQ *)
  t.self_seqno <- t.self_seqno + 1;
  t.next_rreq_id <- t.next_rreq_id + 1;
  let rreq =
    {
      rq_src = t.ctx.Routing_intf.id;
      rq_src_seqno = t.self_seqno;
      rq_id = t.next_rreq_id;
      rq_dst = dst;
      rq_dst_seqno = requested_seqno t dst;
      rq_hops = 0;
      rq_ttl = ttl;
    }
  in
  t.ctx.Routing_intf.mac_send
    (control_frame t ~dst:Frame.Broadcast ~size:t.config.rreq_size
       ~payload:(Rreq rreq))

let send_rrep t ~to_ rrep =
  t.ctx.Routing_intf.mac_send
    (control_frame t ~dst:(Frame.Unicast to_) ~size:t.config.rrep_size
       ~payload:(Rrep rrep))

let handle_rreq t ~from rreq =
  let me = t.ctx.Routing_intf.id in
  if rreq.rq_src = me then ()
  else if not (Seen_cache.witness t.seen ~origin:rreq.rq_src ~id:rreq.rq_id)
  then ()
  else begin
    (* reverse route to the originator *)
    ignore
      (update_route t ~dst:rreq.rq_src ~seqno:rreq.rq_src_seqno
         ~hops:(rreq.rq_hops + 1) ~next_hop:from);
    if rreq.rq_dst = me then begin
      (* destination reply: seqno must cover the request *)
      (match rreq.rq_dst_seqno with
      | Some s when s > t.self_seqno -> t.self_seqno <- s
      | Some _ | None -> ());
      t.self_seqno <- t.self_seqno + 1;
      send_rrep t ~to_:from
        {
          rp_src = rreq.rq_src;
          rp_dst = me;
          rp_dst_seqno = t.self_seqno;
          rp_hops = 0;
          rp_lifetime = t.config.route_lifetime;
        }
    end
    else begin
      let entry = valid_route t rreq.rq_dst in
      let can_reply =
        match (entry, rreq.rq_dst_seqno) with
        | Some r, Some s -> r.seqno_known && r.seqno >= s
        | Some r, None -> r.seqno_known
        | None, _ -> false
      in
      match entry with
      | Some r when can_reply ->
          (* intermediate reply; precursors gain the requester direction *)
          Hashtbl.replace r.precursors from ();
          send_rrep t ~to_:from
            {
              rp_src = rreq.rq_src;
              rp_dst = rreq.rq_dst;
              rp_dst_seqno = r.seqno;
              rp_hops = r.hops;
              rp_lifetime = r.expiry -. now t;
            }
      | Some _ | None ->
          if rreq.rq_ttl > 1 then begin
            let requested =
              match (rreq.rq_dst_seqno, entry) with
              | Some s, Some r when r.seqno_known ->
                  Some (Stdlib.max s r.seqno)
              | Some s, _ -> Some s
              | None, Some r when r.seqno_known -> Some r.seqno
              | None, _ -> None
            in
            let relayed =
              {
                rreq with
                rq_hops = rreq.rq_hops + 1;
                rq_ttl = rreq.rq_ttl - 1;
                rq_dst_seqno = requested;
              }
            in
            let delay =
              Des.Rng.float t.ctx.Routing_intf.rng t.config.relay_jitter
            in
            ignore
              (Des.Engine.schedule ~span:span_timer t.ctx.Routing_intf.engine ~delay
                 (fun () ->
                   t.ctx.Routing_intf.mac_send
                     (control_frame t ~dst:Frame.Broadcast
                        ~size:t.config.rreq_size ~payload:(Rreq relayed))))
          end
    end
  end

let handle_rrep t ~from rrep =
  let me = t.ctx.Routing_intf.id in
  let accepted =
    update_route t ~dst:rrep.rp_dst ~seqno:rrep.rp_dst_seqno
      ~hops:(rrep.rp_hops + 1) ~next_hop:from
  in
  if rrep.rp_src = me then begin
    if accepted || valid_route t rrep.rp_dst <> None then
      Discovery.succeed t.discovery ~dst:rrep.rp_dst
  end
  else begin
    (* forward along the reverse route toward the originator *)
    match valid_route t rrep.rp_src with
    | None -> ()
    | Some reverse ->
        (match Hashtbl.find_opt t.routes rrep.rp_dst with
        | Some fwd when route_valid t fwd ->
            Hashtbl.replace fwd.precursors reverse.next_hop ()
        | Some _ | None -> ());
        send_rrep t ~to_:reverse.next_hop
          { rrep with rp_hops = rrep.rp_hops + 1 }
  end

let handle_rerr t ~from rerr =
  let propagate = ref [] in
  List.iter
    (fun (dst, seqno) ->
      match Hashtbl.find_opt t.routes dst with
      | Some r when r.valid && r.next_hop = from ->
          r.valid <- false;
          r.seqno <- Stdlib.max r.seqno seqno;
          t.on_change dst;
          if Hashtbl.length r.precursors > 0 then
            propagate := (dst, r.seqno) :: !propagate
      | Some _ | None -> ())
    rerr.re_unreachable;
  send_rerr t ~entries:!propagate ~to_:Frame.Broadcast

let handle_data t ~from data ~size =
  let me = t.ctx.Routing_intf.id in
  if data.Frame.final_dst = me then t.ctx.Routing_intf.deliver data
  else if forward_data t data ~size:(size - t.config.ip_overhead) then ()
  else begin
    let seqno =
      match Hashtbl.find_opt t.routes data.Frame.final_dst with
      | Some r -> r.seqno + 1
      | None -> 1
    in
    send_rerr t
      ~entries:[ (data.Frame.final_dst, seqno) ]
      ~to_:(Frame.Unicast from);
    t.ctx.Routing_intf.drop_data data ~reason:"no route at relay"
  end

let originate t data ~size =
  let dst = data.Frame.final_dst in
  if dst = t.ctx.Routing_intf.id then t.ctx.Routing_intf.deliver data
  else if forward_data t data ~size then ()
  else Discovery.park t.discovery ~dst data ~size

(* Link break: invalidate every route through the dead neighbour, report
   to precursors, and attempt local repair for the data in hand. *)
let unicast_failed t ~frame ~dst:next_hop =
  let lost = ref [] in
  Hashtbl.iter
    (fun dst r ->
      if r.valid && r.next_hop = next_hop then begin
        r.valid <- false;
        r.seqno <- r.seqno + 1;
        t.on_change dst;
        if Hashtbl.length r.precursors > 0 then
          lost := (dst, r.seqno) :: !lost
      end)
    t.routes;
  (match frame.Frame.payload with
  | Frame.Data data ->
      let size = frame.Frame.size - t.config.ip_overhead in
      let dst = data.Frame.final_dst in
      (* local repair: buffer and re-discover from here *)
      lost := List.filter (fun (d, _) -> d <> dst) !lost;
      Discovery.park t.discovery ~dst data ~size
  | _ -> ());
  send_rerr t ~entries:!lost ~to_:Frame.Broadcast

let receive t ~src frame =
  match frame.Frame.payload with
  | Frame.Data data -> handle_data t ~from:src data ~size:frame.Frame.size
  | Rreq rreq -> handle_rreq t ~from:src rreq
  | Rrep rrep -> handle_rrep t ~from:src rrep
  | Rerr rerr -> handle_rerr t ~from:src rerr
  | _ -> ()

let gauges t =
  let time = now t in
  let route_entries =
    Hashtbl.fold
      (fun _ r acc -> if r.valid && r.expiry > time then acc + 1 else acc)
      t.routes 0
  in
  {
    Routing_intf.own_seqno = t.self_seqno;
    max_denominator = 0;
    seqno_resets = 0;
    label_width_bits = 0;
    label_resets = 0;
    route_entries;
    pending_packets = Discovery.parked t.discovery;
  }

let create_full ?(config = default_config) ctx =
  (* lazy ties the knot: the request callbacks need the agent holding them *)
  let rec t =
    lazy
      {
        ctx;
        config;
        routes = Hashtbl.create 32;
        seen = Seen_cache.create ctx.Routing_intf.engine ~ttl:30.0;
        discovery =
          Discovery.create ctx.Routing_intf.engine ~ttls:config.ttls
            ~capacity:Discovery.capacity ~hold:Discovery.hold
            ~send:(fun ~dst ~ttl ~attempt:_ ->
              originate_rreq (Lazy.force t) ~dst ~ttl)
            ~give_up:(fun ~dst ->
              (* repair failed: notify precursors *)
              let t = Lazy.force t in
              match Hashtbl.find_opt t.routes dst with
              | Some r when Hashtbl.length r.precursors > 0 ->
                  send_rerr t ~entries:[ (dst, r.seqno) ] ~to_:Frame.Broadcast
              | Some _ | None -> ())
            ~forward:(fun data ~size -> forward_data (Lazy.force t) data ~size)
            ~drop:ctx.Routing_intf.drop_data;
        self_seqno = 0;
        next_rreq_id = 0;
        on_change = ignore;
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

let create ?config ctx = snd (create_full ?config ctx)

let own_seqno t = t.self_seqno

let next_hop t ~dst =
  match valid_route t dst with Some r -> Some r.next_hop | None -> None

let route_seqno t ~dst =
  match Hashtbl.find_opt t.routes dst with
  | Some r when r.seqno_known -> Some r.seqno
  | Some _ | None -> None

let on_route_change t f = t.on_change <- f
