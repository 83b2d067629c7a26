let span_timer = Obs.span "proto.ldr.timer"

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
    rreq_size = 48;
    rrep_size = 44;
    rerr_size = 32;
    ip_overhead = 20;
  }

type label = { sn : int; fd : int }

type rreq = {
  rq_src : int;
  rq_id : int;
  rq_dst : int;
  rq_label : label option;
  rq_reset : bool;
  rq_hops : int;
  rq_ttl : int;
}

type rrep = {
  rp_src : int;
  rp_id : int;
  rp_dst : int;
  rp_label : label;
  rp_dist : int;
  rp_lifetime : float;
}

type rerr = { re_unreachable : int list }

type Frame.payload += Rreq of rreq | Rrep of rrep | Rerr of rerr

(* "adv is an in-order successor label for own": fresher sequence number,
   or equal freshness with strictly smaller feasible distance. *)
let feasible ~own ~adv =
  match own with
  | None -> true
  | Some o -> adv.sn > o.sn || (adv.sn = o.sn && adv.fd < o.fd)

(* The lower of two labels in the same sense (for request strengthening). *)
let lower a b = if feasible ~own:(Some a) ~adv:b then b else a

type route = {
  mutable label : label option;  (** own (sn, fd) for the destination *)
  mutable next_hop : int;
  mutable dist : int;
  mutable expiry : float;
  mutable valid : bool;
  precursors : (int, unit) Hashtbl.t;
}

(* Reverse-path state per (source, rreq_id). *)
type engagement = {
  e_label : label option;  (** the solicitation's label as received *)
  e_last_hop : int;
  mutable e_replied : bool;
}

type t = {
  ctx : Routing_intf.ctx;
  config : config;
  routes : (int, route) Hashtbl.t;
  engagements : (int * int, engagement) Hashtbl.t;
  seen : Seen_cache.t;
  discovery : Discovery.t;
  mutable self_seqno : int;
  mutable next_rreq_id : int;
  mutable resets : int;
}

let now t = Des.Engine.now t.ctx.Routing_intf.engine

let route_for t dst =
  match Hashtbl.find_opt t.routes dst with
  | Some r -> r
  | None ->
      let r =
        {
          label = None;
          next_hop = -1;
          dist = 0;
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

let refresh t r =
  r.expiry <- Stdlib.max r.expiry (now t +. t.config.route_lifetime)

let control_frame t ~dst ~size ~payload =
  let kind =
    match payload with
    | Rreq _ -> "rreq"
    | Rrep _ -> "rrep"
    | Rerr _ -> "rerr"
    | _ -> "ctl"
  in
  Frame.with_kind (Frame.make ~src:t.ctx.Routing_intf.id ~dst ~size ~payload) kind

let send_rerr t ~dsts ~to_ =
  if dsts <> [] then
    t.ctx.Routing_intf.mac_send
      (control_frame t ~dst:to_ ~size:t.config.rerr_size
         ~payload:(Rerr { re_unreachable = dsts }))

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
        t.ctx.Routing_intf.mac_send
          (Frame.make ~src:t.ctx.Routing_intf.id
             ~dst:(Frame.Unicast r.next_hop)
             ~size:(size + t.config.ip_overhead)
             ~payload:(Frame.Data data));
        true
      end

let originate_rreq t ~dst ~ttl ~reset =
  t.next_rreq_id <- t.next_rreq_id + 1;
  let r = route_for t dst in
  let rreq =
    {
      rq_src = t.ctx.Routing_intf.id;
      rq_id = t.next_rreq_id;
      rq_dst = dst;
      rq_label = r.label;
      rq_reset = reset;
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

(* Adopt an advertised route if the label is feasible; the own feasible
   distance resets to the measured distance on a fresher sequence number
   and is otherwise non-increasing (DUAL). *)
let set_route t ~dst ~via ~adv ~dist ~lifetime =
  let r = route_for t dst in
  if not (feasible ~own:r.label ~adv) then false
  else begin
    let new_dist = dist + 1 in
    let new_label =
      match r.label with
      | Some o when o.sn = adv.sn -> { sn = adv.sn; fd = Stdlib.min o.fd new_dist }
      | Some _ | None -> { sn = adv.sn; fd = new_dist }
    in
    r.label <- Some new_label;
    r.next_hop <- via;
    r.dist <- new_dist;
    r.valid <- true;
    r.expiry <- Stdlib.max r.expiry (now t +. lifetime);
    true
  end

let handle_rreq t ~from rreq =
  let me = t.ctx.Routing_intf.id in
  if rreq.rq_src = me then ()
  else if not (Seen_cache.witness t.seen ~origin:rreq.rq_src ~id:rreq.rq_id)
  then ()
  else begin
    Hashtbl.replace t.engagements
      (rreq.rq_src, rreq.rq_id)
      { e_label = rreq.rq_label; e_last_hop = from; e_replied = false };
    if rreq.rq_dst = me then begin
      (* destination: sequence number grows only when a reset is required *)
      (match rreq.rq_label with
      | Some l when l.sn > t.self_seqno -> t.self_seqno <- l.sn
      | Some _ | None -> ());
      if rreq.rq_reset then begin
        t.self_seqno <- t.self_seqno + 1;
        t.resets <- t.resets + 1
      end;
      send_rrep t ~to_:from
        {
          rp_src = rreq.rq_src;
          rp_id = rreq.rq_id;
          rp_dst = me;
          rp_label = { sn = t.self_seqno; fd = 0 };
          rp_dist = 0;
          rp_lifetime = t.config.route_lifetime;
        }
    end
    else begin
      let can_reply =
        (not rreq.rq_reset)
        &&
        match valid_route t rreq.rq_dst with
        | Some r -> (
            match (r.label, rreq.rq_label) with
            | Some mine, Some req -> feasible ~own:(Some req) ~adv:mine
            | Some _, None -> true
            | None, _ -> false)
        | None -> false
      in
      if can_reply then begin
        match valid_route t rreq.rq_dst with
        | Some r ->
            let mine = Option.get r.label in
            Hashtbl.replace r.precursors from ();
            send_rrep t ~to_:from
              {
                rp_src = rreq.rq_src;
                rp_id = rreq.rq_id;
                rp_dst = rreq.rq_dst;
                rp_label = mine;
                rp_dist = r.dist;
                rp_lifetime = r.expiry -. now t;
              }
        | None -> ()
      end
      else if rreq.rq_ttl > 1 then begin
        (* strengthen the solicitation with our own label (path minimum) *)
        let own = (route_for t rreq.rq_dst).label in
        let relayed_label =
          match (rreq.rq_label, own) with
          | None, None -> None
          | Some l, None -> Some l
          | None, Some o -> Some o
          | Some l, Some o -> Some (lower l o)
        in
        let relayed =
          {
            rreq with
            rq_label = relayed_label;
            rq_hops = rreq.rq_hops + 1;
            rq_ttl = rreq.rq_ttl - 1;
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
  if rrep.rp_src = me then begin
    if
      set_route t ~dst:rrep.rp_dst ~via:from ~adv:rrep.rp_label
        ~dist:rrep.rp_dist ~lifetime:rrep.rp_lifetime
    then Discovery.succeed t.discovery ~dst:rrep.rp_dst
  end
  else begin
    match Hashtbl.find_opt t.engagements (rrep.rp_src, rrep.rp_id) with
    | None -> ()
    | Some e when e.e_replied -> ()
    | Some e ->
        if
          set_route t ~dst:rrep.rp_dst ~via:from ~adv:rrep.rp_label
            ~dist:rrep.rp_dist ~lifetime:rrep.rp_lifetime
        then begin
          e.e_replied <- true;
          let r = route_for t rrep.rp_dst in
          Hashtbl.replace r.precursors e.e_last_hop ();
          let mine = Option.get r.label in
          send_rrep t ~to_:e.e_last_hop
            { rrep with rp_label = mine; rp_dist = r.dist };
          Discovery.flush t.discovery ~dst:rrep.rp_dst
        end
        else begin
          (* infeasible here: if we still hold a valid route, advertise it;
             otherwise the reply dies and the source retries with reset *)
          match valid_route t rrep.rp_dst with
          | Some r ->
              e.e_replied <- true;
              Hashtbl.replace r.precursors e.e_last_hop ();
              send_rrep t ~to_:e.e_last_hop
                {
                  rrep with
                  rp_label = Option.get r.label;
                  rp_dist = r.dist;
                }
          | None -> ()
        end
  end

let handle_rerr t ~from rerr =
  let propagate = ref [] in
  List.iter
    (fun dst ->
      match Hashtbl.find_opt t.routes dst with
      | Some r when r.valid && r.next_hop = from ->
          r.valid <- false;
          if Hashtbl.length r.precursors > 0 then propagate := dst :: !propagate
      | Some _ | None -> ())
    rerr.re_unreachable;
  send_rerr t ~dsts:!propagate ~to_:Frame.Broadcast

let handle_data t ~from data ~size =
  let me = t.ctx.Routing_intf.id in
  if data.Frame.final_dst = me then t.ctx.Routing_intf.deliver data
  else if forward_data t data ~size:(size - t.config.ip_overhead) then ()
  else begin
    send_rerr t ~dsts:[ data.Frame.final_dst ] ~to_:(Frame.Unicast from);
    t.ctx.Routing_intf.drop_data data ~reason:"no route at relay"
  end

let originate t data ~size =
  let dst = data.Frame.final_dst in
  if dst = t.ctx.Routing_intf.id then t.ctx.Routing_intf.deliver data
  else if forward_data t data ~size then ()
  else Discovery.park t.discovery ~dst data ~size

let unicast_failed t ~frame ~dst:next_hop =
  let lost = ref [] in
  Hashtbl.iter
    (fun dst r ->
      if r.valid && r.next_hop = next_hop then begin
        r.valid <- false;
        if Hashtbl.length r.precursors > 0 then lost := dst :: !lost
      end)
    t.routes;
  (match frame.Frame.payload with
  | Frame.Data data ->
      let size = frame.Frame.size - t.config.ip_overhead in
      let dst = data.Frame.final_dst in
      lost := List.filter (fun d -> d <> dst) !lost;
      Discovery.park t.discovery ~dst data ~size
  | _ -> ());
  send_rerr t ~dsts:!lost ~to_:Frame.Broadcast

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
    seqno_resets = t.resets;
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
        engagements = Hashtbl.create 64;
        seen = Seen_cache.create ctx.Routing_intf.engine ~ttl:30.0;
        discovery =
          Discovery.create ctx.Routing_intf.engine ~ttls:config.ttls
            ~capacity:Discovery.capacity ~hold:Discovery.hold
            ~send:(fun ~dst ~ttl ~attempt ->
              (* the final attempt demands a destination reset: the case
                 where feasible distances cannot be put in order *)
              let reset = attempt >= List.length config.ttls - 1 in
              originate_rreq (Lazy.force t) ~dst ~ttl ~reset)
            ~give_up:(fun ~dst:_ -> ())
            ~forward:(fun data ~size -> forward_data (Lazy.force t) data ~size)
            ~drop:ctx.Routing_intf.drop_data;
        self_seqno = 0;
        next_rreq_id = 0;
        resets = 0;
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

let label_for t ~dst =
  match Hashtbl.find_opt t.routes dst with Some r -> r.label | None -> None

let next_hop t ~dst =
  match valid_route t dst with Some r -> Some r.next_hop | None -> None
