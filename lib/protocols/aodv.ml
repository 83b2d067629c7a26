open Ondemand

module Frame = Wireless.Frame

type config = unit

let default_config = ()

(* message sizes, bytes *)
let rreq_size = 44
let rrep_size = 40

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

type t = (route, unit) Ondemand.t

let usable time r = r.valid && r.expiry > time

let refresh t r = r.expiry <- Stdlib.max r.expiry (now t +. route_lifetime)

module O = Make (struct
  type nonrec route = route
  type ext = unit
  type unreachable = int * int

  let span = Obs.span "proto.aodv.timer"

  let fresh _ =
    {
      seqno = 0;
      seqno_known = false;
      hops = 0;
      next_hop = -1;
      expiry = 0.0;
      valid = false;
      precursors = Hashtbl.create 4;
    }

  let usable = usable

  let next_hop t dst =
    match Hashtbl.find_opt t.routes dst with
    | Some r when usable (now t) r -> r.next_hop
    | Some _ | None -> -1

  (* [next_hop] has just found the route *)
  let refresh t dst ~next_hop:_ = refresh t (Hashtbl.find t.routes dst)

  (* after a break, ask for something strictly fresher *)
  let unreachable t dst =
    match Hashtbl.find_opt t.routes dst with
    | Some r -> (dst, r.seqno + 1)
    | None -> (dst, 1)

  let rerr entries = Rerr { re_unreachable = entries }
end)

(* Standard AODV update rule: accept fresher seqno, or same seqno with
   fewer hops, or anything when the current entry is invalid. *)
let update_route t ~dst ~seqno ~hops ~next_hop =
  let r = O.route_for t dst in
  let better =
    (not (usable (now t) r))
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
    t.listener dst
  end;
  better

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
  send t ~dst:Frame.Broadcast ~size:rreq_size ~kind:"rreq" (Rreq rreq)

let send_rrep t ~to_ rrep =
  send t ~dst:(Frame.Unicast to_) ~size:rrep_size ~kind:"rrep" (Rrep rrep)

let handle_rreq t ~from rreq =
  let me = t.ctx.Routing_intf.id in
  if first_sight t ~src:rreq.rq_src ~id:rreq.rq_id then begin
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
          rp_lifetime = route_lifetime;
        }
    end
    else begin
      let entry = O.valid_route t rreq.rq_dst in
      match entry with
      | Some r
        when r.seqno_known
             && (match rreq.rq_dst_seqno with
                | Some s -> r.seqno >= s
                | None -> true) ->
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
            O.relay t ~size:rreq_size ~kind:"rreq" (Rreq relayed)
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
    if accepted || O.valid_route t rrep.rp_dst <> None then
      Discovery.succeed t.discovery ~dst:rrep.rp_dst
  end
  else begin
    (* forward along the reverse route toward the originator *)
    match O.valid_route t rrep.rp_src with
    | None -> ()
    | Some reverse ->
        (match Hashtbl.find_opt t.routes rrep.rp_dst with
        | Some fwd when usable (now t) fwd ->
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
          t.listener dst;
          if Hashtbl.length r.precursors > 0 then
            propagate := (dst, r.seqno) :: !propagate
      | Some _ | None -> ())
    rerr.re_unreachable;
  O.send_rerr t !propagate ~to_:Frame.Broadcast

(* Link break: invalidate every route through the dead neighbour, report
   to precursors, and attempt local repair for the data in hand. *)
let unicast_failed t ~frame ~dst:next_hop =
  let lost = ref [] in
  Hashtbl.iter
    (fun dst r ->
      if r.valid && r.next_hop = next_hop then begin
        r.valid <- false;
        r.seqno <- r.seqno + 1;
        t.listener dst;
        if Hashtbl.length r.precursors > 0 then
          lost := (dst, r.seqno) :: !lost
      end)
    t.routes;
  (* local repair: buffer the packet in hand and re-discover from here;
     its destination is being requested again, not lost *)
  let parked = O.salvage t frame ~retry:false in
  if parked >= 0 then lost := List.filter (fun (d, _) -> d <> parked) !lost;
  O.send_rerr t !lost ~to_:Frame.Broadcast

let control t ~src = function
  | Rreq rreq -> handle_rreq t ~from:src rreq
  | Rrep rrep -> handle_rrep t ~from:src rrep
  | Rerr rerr -> handle_rerr t ~from:src rerr
  | _ -> ()

let gauges t =
  {
    Routing_intf.no_gauges with
    own_seqno = t.self_seqno;
    route_entries = O.route_entries t;
    pending_packets = Discovery.parked t.discovery;
  }

(* repair failed: notify precursors *)
let give_up t ~dst =
  match Hashtbl.find_opt t.routes dst with
  | Some r when Hashtbl.length r.precursors > 0 ->
      O.send_rerr t [ (dst, r.seqno) ] ~to_:Frame.Broadcast
  | Some _ | None -> ()

let create_full ctx =
  O.create ctx ~ext:() ~self_seqno:0 ~seen_ttl:30.0
    ~send:(fun t ~dst ~ttl ~attempt:_ -> originate_rreq t ~dst ~ttl)
    ~give_up ~control ~unicast_failed ~gauges

let create ?config:(_ : config option) ctx = snd (create_full ctx)

let own_seqno t = t.self_seqno

let next_hop t ~dst =
  match O.valid_route t dst with Some r -> Some r.next_hop | None -> None

let route_seqno t ~dst =
  match Hashtbl.find_opt t.routes dst with
  | Some r when r.seqno_known -> Some r.seqno
  | Some _ | None -> None

let on_route_change t f = t.listener <- f
