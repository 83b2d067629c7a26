open Ondemand

module Frame = Wireless.Frame

type config = unit

let default_config = ()

(* message sizes, bytes *)
let rreq_size = 48
let rrep_size = 44

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

type ext = {
  engagements : unit engagements;
      (** the reverse hop per engaged request; no reply needs more *)
  mutable resets : int;
}

type t = (route, ext) Ondemand.t

module O = Make (struct
  type nonrec route = route
  type nonrec ext = ext
  type unreachable = int

  let span = Obs.span "proto.ldr.timer"

  let fresh _ =
    {
      label = None;
      next_hop = -1;
      dist = 0;
      expiry = 0.0;
      valid = false;
      precursors = Hashtbl.create 4;
    }

  let usable time r = r.valid && r.expiry > time

  let next_hop t dst =
    match Hashtbl.find_opt t.routes dst with
    | Some r when usable (now t) r -> r.next_hop
    | Some _ | None -> -1

  (* [next_hop] has just found the route *)
  let refresh t dst ~next_hop:_ =
    let r = Hashtbl.find t.routes dst in
    r.expiry <- Stdlib.max r.expiry (now t +. route_lifetime)

  let unreachable _ dst = dst
  let rerr dsts = Rerr { re_unreachable = dsts }
end)

let originate_rreq t ~dst ~ttl ~reset =
  t.next_rreq_id <- t.next_rreq_id + 1;
  let r = O.route_for t dst in
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
  send t ~dst:Frame.Broadcast ~size:rreq_size ~kind:"rreq" (Rreq rreq)

let send_rrep t ~to_ rrep =
  send t ~dst:(Frame.Unicast to_) ~size:rrep_size ~kind:"rrep" (Rrep rrep)

(* Adopt an advertised route if the label is feasible; the own feasible
   distance resets to the measured distance on a fresher sequence number
   and is otherwise non-increasing (DUAL). *)
let set_route t ~dst ~via ~adv ~dist ~lifetime =
  let r = O.route_for t dst in
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
  if first_sight t ~src:rreq.rq_src ~id:rreq.rq_id then begin
    engage t t.ext.engagements ~src:rreq.rq_src ~id:rreq.rq_id ~cached:()
      ~last_hop:from;
    if rreq.rq_dst = me then begin
      (* destination: sequence number grows only when a reset is required *)
      (match rreq.rq_label with
      | Some l when l.sn > t.self_seqno -> t.self_seqno <- l.sn
      | Some _ | None -> ());
      if rreq.rq_reset then begin
        t.self_seqno <- t.self_seqno + 1;
        t.ext.resets <- t.ext.resets + 1
      end;
      send_rrep t ~to_:from
        {
          rp_src = rreq.rq_src;
          rp_id = rreq.rq_id;
          rp_dst = me;
          rp_label = { sn = t.self_seqno; fd = 0 };
          rp_dist = 0;
          rp_lifetime = route_lifetime;
        }
    end
    else begin
      (* reply when our own label is in order for the requester's *)
      match if rreq.rq_reset then None else O.valid_route t rreq.rq_dst with
      | Some ({ label = Some mine; _ } as r)
        when (match rreq.rq_label with
             | Some req -> feasible ~own:(Some req) ~adv:mine
             | None -> true) ->
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
      | Some _ | None ->
          if rreq.rq_ttl > 1 then begin
            (* strengthen the solicitation with our own label (path minimum) *)
            let own = (O.route_for t rreq.rq_dst).label in
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
            O.relay t ~size:rreq_size ~kind:"rreq" (Rreq relayed)
          end
    end
  end

(* Answer an engaged request with this node's own label for the
   destination; the last hop becomes a precursor. *)
let advertise t e r rrep =
  e.e_replied <- true;
  Hashtbl.replace r.precursors e.e_last_hop ();
  send_rrep t ~to_:e.e_last_hop
    { rrep with rp_label = Option.get r.label; rp_dist = r.dist }

let handle_rrep t ~from rrep =
  let me = t.ctx.Routing_intf.id in
  if rrep.rp_src = me then begin
    if
      set_route t ~dst:rrep.rp_dst ~via:from ~adv:rrep.rp_label
        ~dist:rrep.rp_dist ~lifetime:rrep.rp_lifetime
    then Discovery.succeed t.discovery ~dst:rrep.rp_dst
  end
  else begin
    match engagement t.ext.engagements ~src:rrep.rp_src ~id:rrep.rp_id with
    | None -> ()
    | Some e when e.e_replied -> ()
    | Some e ->
        if
          set_route t ~dst:rrep.rp_dst ~via:from ~adv:rrep.rp_label
            ~dist:rrep.rp_dist ~lifetime:rrep.rp_lifetime
        then begin
          advertise t e (O.route_for t rrep.rp_dst) rrep;
          Discovery.flush t.discovery ~dst:rrep.rp_dst
        end
        else begin
          (* infeasible here: if we still hold a valid route, advertise it;
             otherwise the reply dies and the source retries with reset *)
          match O.valid_route t rrep.rp_dst with
          | Some r -> advertise t e r rrep
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
  O.send_rerr t !propagate ~to_:Frame.Broadcast

let unicast_failed t ~frame ~dst:next_hop =
  let lost = ref [] in
  Hashtbl.iter
    (fun dst r ->
      if r.valid && r.next_hop = next_hop then begin
        r.valid <- false;
        if Hashtbl.length r.precursors > 0 then lost := dst :: !lost
      end)
    t.routes;
  let parked = O.salvage t frame ~retry:false in
  if parked >= 0 then lost := List.filter (fun d -> d <> parked) !lost;
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
    seqno_resets = t.ext.resets;
    route_entries = O.route_entries t;
    pending_packets = Discovery.parked t.discovery;
  }

let create_full ctx =
  O.create ctx
    ~ext:{ engagements = engagements (); resets = 0 }
    ~self_seqno:0 ~seen_ttl:Routing_intf.seen_lifetime
    ~send:(fun t ~dst ~ttl ~attempt ->
      (* the final attempt demands a destination reset: the case where
         feasible distances cannot be put in order *)
      originate_rreq t ~dst ~ttl ~reset:(attempt >= List.length ttls - 1))
    ~give_up:(fun _ ~dst:_ -> ())
    ~control ~unicast_failed ~gauges

let create ?config:(_ : config option) ctx = snd (create_full ctx)

let own_seqno t = t.self_seqno

let label_for t ~dst =
  match Hashtbl.find_opt t.routes dst with Some r -> r.label | None -> None

let next_hop t ~dst =
  match O.valid_route t dst with Some r -> Some r.next_hop | None -> None
