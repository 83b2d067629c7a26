let span_timer = Obs.span "proto.srp.timer"

module Ordering = Slr.Ordering
module Label = Slr.Label
module Label_set = Slr.Label_set
module Fraction = Slr.Fraction
module New_order = Slr.New_order
module Frame = Wireless.Frame

type config = {
  ttls : int list;
  route_lifetime : float;
  delete_period : float;
  max_denom : int;
  min_reply_hops : int;
  lie_k : int;
  labels : Label_set.id;
  probe_on_n : bool;
  relay_jitter : float;
  data_ttl : int;
  rack_timeout : float;
  rack_retries : int;
  rreq_size : int;
  rrep_size : int;
  rerr_size : int;
  rack_size : int;
  ip_overhead : int;
}

let default_config =
  {
    ttls = [ 1; 3; 7; 16 ];
    route_lifetime = 10.0;
    delete_period = 60.0;
    max_denom = 1_000_000_000;
    min_reply_hops = 0;
    lie_k = 10_000;
    labels = Label_set.default;
    probe_on_n = false;
    relay_jitter = 0.01;
    data_ttl = 64;
    rack_timeout = 0.1;
    rack_retries = 2;
    rreq_size = 52;
    rrep_size = 44;
    rerr_size = 32;
    rack_size = 26;
    ip_overhead = 20;
  }

type rreq = {
  rq_src : int;
  rq_id : int;
  rq_dst : int;
  rq_order : Ordering.t;
  rq_u : bool;
  rq_rr : bool;
  rq_d : bool;
  rq_n : bool;
  rq_hops : int;
  rq_ttl : int;
  rq_adv : rreq_adv option;
}

and rreq_adv = { ra_order : Ordering.t; ra_dist : int }

type rrep = {
  rp_src : int;
  rp_id : int;
  rp_dst : int;
  rp_order : Ordering.t;
  rp_dist : int;
  rp_lifetime : float;
  rp_n : bool;
}

type rerr = { re_unreachable : int list }

type rack = { k_src : int; k_id : int }

type Frame.payload +=
  | Rreq of rreq
  | Rrep of rrep
  | Rerr of rerr
  | Rack of rack

type succ = {
  mutable s_order : Ordering.t;
  mutable s_dist : int;
  mutable s_expiry : float;
}

type route = {
  mutable own : Ordering.t;
  mutable own_keep_until : float;  (** DELETE_PERIOD retention horizon *)
  succs : (int, succ) Hashtbl.t;
  precursors : (int, unit) Hashtbl.t;
}

(* Engaged-state entry per (source, rreq_id): the cached solicitation
   ordering C and the reverse-path last hop. *)
type engagement = {
  e_cached : Ordering.t;
  e_last_hop : int;
  e_time : float;
  mutable e_replied : bool;
}

type t = {
  ctx : Routing_intf.ctx;
  config : config;
  labels : (module Label.S);  (** resolved once from [config.labels] *)
  infinite : Ordering.t;  (** this instance's unassigned sentinel *)
  routes : (int, route) Hashtbl.t;
  engagements : (int * int, engagement) Hashtbl.t;
  seen : Seen_cache.t;
  discovery : Discovery.t;
  (* RREPs awaiting a RACK, keyed by (rreq source, rreq id, next hop) *)
  racks : (int * int * int, Des.Engine.handle) Hashtbl.t;
  mutable self_seqno : int;
  mutable next_rreq_id : int;
  mutable max_denom_seen : int;
  mutable label_width_max : int;
  mutable label_resets : int;
  mutable resets : int;
  mutable rack_retx : int;
  (* online-monitor hook: fired after every route-table mutation *)
  mutable listener : int -> unit;
}

let now t = Des.Engine.now t.ctx.Routing_intf.engine

let route_for t dst =
  match Hashtbl.find_opt t.routes dst with
  | Some r -> r
  | None ->
      let r =
        {
          own = t.infinite;
          own_keep_until = 0.0;
          succs = Hashtbl.create 4;
          precursors = Hashtbl.create 4;
        }
      in
      Hashtbl.replace t.routes dst r;
      r

(* DELETE_PERIOD: once the retention horizon of an invalid route passes,
   the node may forget its label (Definition 3). *)
let own_ordering t dst =
  if dst = t.ctx.Routing_intf.id then
    Ordering.destination_of t.labels ~sn:t.self_seqno
  else begin
    match Hashtbl.find_opt t.routes dst with
    | None -> t.infinite
    | Some r ->
        if
          Hashtbl.length r.succs = 0
          && now t > r.own_keep_until
          && not (Ordering.is_unassigned r.own)
        then r.own <- t.infinite;
        r.own
  end

let retain_label t r = r.own_keep_until <- now t +. t.config.delete_period

let prune_succs t r =
  let time = now t in
  let dead =
    Hashtbl.fold
      (fun b s acc -> if s.s_expiry <= time then b :: acc else acc)
      r.succs []
  in
  List.iter (Hashtbl.remove r.succs) dead

let live_succs t dst =
  match Hashtbl.find_opt t.routes dst with
  | None -> []
  | Some r ->
      prune_succs t r;
      Hashtbl.fold (fun b s acc -> (b, s) :: acc) r.succs []

let has_active_route t ~dst =
  dst = t.ctx.Routing_intf.id || live_succs t dst <> []

(* Uni-path forwarding: the successor from the min-hop set (paper §III). *)
let best_successor t dst =
  match live_succs t dst with
  | [] -> None
  | (b0, s0) :: rest ->
      let best, _ =
        List.fold_left
          (fun (bb, bs) (b, s) ->
            if
              s.s_dist < bs.s_dist
              || (s.s_dist = bs.s_dist && b < bb)
            then (b, s)
            else (bb, bs))
          (b0, s0) rest
      in
      Some best

let route_dist t dst =
  match live_succs t dst with
  | [] -> 0
  | succs -> List.fold_left (fun acc (_, s) -> Stdlib.min acc s.s_dist) max_int succs

let succ_ordering_list t dst =
  List.map (fun (b, s) -> (b, s.s_order)) (live_succs t dst)

(* §V heuristic: understate the solicitation ordering so only strictly
   better-ordered nodes reply. The perturbation is instance-specific. *)
let lie_about t order =
  let (module L : Label.S) = t.labels in
  let label = L.understate ~k:t.config.lie_k order.Ordering.label in
  if label == order.Ordering.label then order
  else Ordering.v ~sn:order.Ordering.sn ~label

let control_frame t ~dst ~size ~payload =
  let kind =
    match payload with
    | Rreq _ -> "rreq"
    | Rrep _ -> "rrep"
    | Rerr _ -> "rerr"
    | Rack _ -> "rack"
    | _ -> "ctl"
  in
  Frame.with_kind (Frame.make ~src:t.ctx.Routing_intf.id ~dst ~size ~payload) kind

let send_rerr t ~dsts ~to_ =
  if dsts <> [] then
    t.ctx.Routing_intf.mac_send
      (control_frame t ~dst:to_ ~size:t.config.rerr_size
         ~payload:(Rerr { re_unreachable = dsts }))

(* Remove [neighbor] as successor everywhere (the link is gone); returns
   destinations that lost their last successor. *)
let drop_link t neighbor =
  let lost = ref [] in
  let changed = ref [] in
  Hashtbl.iter
    (fun dst r ->
      if Hashtbl.mem r.succs neighbor then begin
        Hashtbl.remove r.succs neighbor;
        changed := dst :: !changed;
        Trace.route_del t.ctx.Routing_intf.trace ~node:t.ctx.Routing_intf.id
          ~dst ~via:neighbor ~reason:"link lost";
        if Hashtbl.length r.succs = 0 then lost := dst :: !lost
      end)
    t.routes;
  List.iter t.listener !changed;
  !lost

let report_lost_routes t lost =
  let with_precursors =
    List.filter
      (fun dst ->
        match Hashtbl.find_opt t.routes dst with
        | Some r -> Hashtbl.length r.precursors > 0
        | None -> false)
      lost
  in
  send_rerr t ~dsts:with_precursors ~to_:Frame.Broadcast

(* ------------------------------------------------------------------ *)
(* Data plane                                                          *)

let data_frame t ~next_hop data ~size =
  Frame.make ~src:t.ctx.Routing_intf.id ~dst:(Frame.Unicast next_hop)
    ~size:(size + t.config.ip_overhead)
    ~payload:(Frame.Data data)

let forward_data t data ~size =
  let dst = data.Frame.final_dst in
  match best_successor t dst with
  | None -> false
  | Some next_hop ->
      data.Frame.hops <- data.Frame.hops + 1;
      if data.Frame.hops > t.config.data_ttl then begin
        t.ctx.Routing_intf.drop_data data ~reason:"ttl exceeded";
        true
      end
      else begin
        (match Hashtbl.find_opt t.routes dst with
        | Some r ->
            retain_label t r;
            (match Hashtbl.find_opt r.succs next_hop with
            | Some s ->
                s.s_expiry <-
                  Stdlib.max s.s_expiry (now t +. t.config.route_lifetime)
            | None -> ())
        | None -> ());
        Trace.pkt_forward t.ctx.Routing_intf.trace ~node:t.ctx.Routing_intf.id
          ~flow:data.Frame.flow ~seq:data.Frame.seq ~next:next_hop;
        t.ctx.Routing_intf.mac_send (data_frame t ~next_hop data ~size);
        true
      end

(* ------------------------------------------------------------------ *)
(* Solicitations                                                       *)

let fresh_rreq_id t =
  t.next_rreq_id <- t.next_rreq_id + 1;
  t.next_rreq_id

(* The advertisement piece of a RREQ this node emits: its route to the
   RREQ source (itself at origination). *)
let rreq_advertisement t ~src =
  if src = t.ctx.Routing_intf.id then
    Some
      { ra_order = Ordering.destination_of t.labels ~sn:t.self_seqno;
        ra_dist = 0 }
  else if has_active_route t ~dst:src then
    Some { ra_order = own_ordering t src; ra_dist = route_dist t src }
  else None

let broadcast_rreq t rreq ~jitter =
  let frame =
    control_frame t ~dst:Frame.Broadcast ~size:t.config.rreq_size
      ~payload:(Rreq rreq)
  in
  if jitter <= 0.0 then t.ctx.Routing_intf.mac_send frame
  else
    let delay = Des.Rng.float t.ctx.Routing_intf.rng jitter in
    ignore
      (Des.Engine.schedule ~span:span_timer t.ctx.Routing_intf.engine
         ~delay (fun () ->
           t.ctx.Routing_intf.mac_send frame))

let originate_rreq t ~dst ~ttl ~rr =
  let own = own_ordering t dst in
  let unassigned = not (Ordering.is_finite own) in
  let order = if unassigned then t.infinite else lie_about t own in
  let rreq =
    {
      rq_src = t.ctx.Routing_intf.id;
      rq_id = fresh_rreq_id t;
      rq_dst = dst;
      rq_order = order;
      rq_u = unassigned;
      rq_rr = rr;
      rq_d = false;
      rq_n = false;
      rq_hops = 0;
      rq_ttl = ttl;
      rq_adv = rreq_advertisement t ~src:t.ctx.Routing_intf.id;
    }
  in
  broadcast_rreq t rreq ~jitter:0.0

(* D-bit probe: unicast along the forward path, forcing the destination
   itself to reply with a reset (paper §III, MAX_DENOM and N-bit cases). *)
let send_probe t ~dst =
  match best_successor t dst with
  | None -> ()
  | Some next_hop ->
      let rreq =
        {
          rq_src = t.ctx.Routing_intf.id;
          rq_id = fresh_rreq_id t;
          rq_dst = dst;
          rq_order = own_ordering t dst;
          rq_u = false;
          rq_rr = true;
          rq_d = true;
          rq_n = false;
          rq_hops = 0;
          rq_ttl = t.config.data_ttl;
          rq_adv = rreq_advertisement t ~src:t.ctx.Routing_intf.id;
        }
      in
      t.ctx.Routing_intf.mac_send
        (control_frame t ~dst:(Frame.Unicast next_hop)
           ~size:t.config.rreq_size ~payload:(Rreq rreq))

(* ------------------------------------------------------------------ *)
(* Procedure 3 (Set Route): adopt an advertisement if NEWORDER is finite *)

type adoption = Adopted | Rejected

let set_route t ~dst ~via ~adv_order ~adv_dist ~cached ~lifetime =
  let current = own_ordering t dst in
  if not (New_order.feasible ~current ~adv:adv_order) then Rejected
  else begin
    let result =
      New_order.compute_with ~labels:t.labels ~current ~cached ~adv:adv_order
    in
    if not (Ordering.is_finite result.New_order.order) then Rejected
    else begin
      let g = result.New_order.order in
      let r = route_for t dst in
      r.own <- g;
      retain_label t r;
      (match g.Ordering.label with
      | Label.Frac f when f.Fraction.den > t.max_denom_seen ->
          t.max_denom_seen <- f.Fraction.den
      | Label.Frac _ | Label.Big _ | Label.Lex _ -> ());
      let width = Label.width_bits g.Ordering.label in
      if width > t.label_width_max then t.label_width_max <- width;
      let trace = t.ctx.Routing_intf.trace in
      let me = t.ctx.Routing_intf.id in
      Trace.route_add trace ~node:me ~dst ~via ~dist:(adv_dist + 1);
      (match result.New_order.case with
      | New_order.Fresher_split | New_order.Equal_split ->
          if Trace.enabled trace then
            Trace.label_split trace ~node:me ~dst ~sn:g.Ordering.sn
              ~label:(Label.encode g.Ordering.label)
      | New_order.Infinite | New_order.Fresher_next | New_order.Keep_current ->
          ());
      let entry =
        {
          s_order = adv_order;
          s_dist = adv_dist + 1;
          s_expiry = now t +. lifetime;
        }
      in
      Hashtbl.replace r.succs via entry;
      (* Algorithm 1 line 13: eliminate successors no longer in order *)
      let stale =
        Hashtbl.fold
          (fun b s acc ->
            if Ordering.precedes g s.s_order then acc else b :: acc)
          r.succs []
      in
      List.iter
        (fun b ->
          Hashtbl.remove r.succs b;
          Trace.route_del trace ~node:me ~dst ~via:b ~reason:"out of order")
        stale;
      t.listener dst;
      Adopted
    end
  end

(* ------------------------------------------------------------------ *)
(* RREQ handling (Procedure 2, SDC, Eqs. 9-11)                          *)

(* Engagements must outlive any in-flight reply; anything older than
   DELETE_PERIOD is dead. Amortised: sweep when the table grows large. *)
let sweep_engagements t =
  if Hashtbl.length t.engagements > 4096 then begin
    let horizon = now t -. t.config.delete_period in
    let dead =
      Hashtbl.fold
        (fun key e acc -> if e.e_time < horizon then key :: acc else acc)
        t.engagements []
    in
    List.iter (Hashtbl.remove t.engagements) dead
  end

(* RACK: protocol-level acknowledged RREP delivery (paper §III). The MAC
   already retries each hop, but a receiver that crashed after the MAC ACK,
   or a reply lost to a link that died mid-exchange, would otherwise stall
   the whole discovery until the requester's ring timeout. Each unicast
   RREP therefore awaits a RACK from the next hop and is retransmitted with
   binary exponential backoff, at most [rack_retries] times. *)
let rec send_rrep_reliable t ~to_ ?(attempt = 0) rrep =
  t.ctx.Routing_intf.mac_send
    (control_frame t ~dst:(Frame.Unicast to_) ~size:t.config.rrep_size
       ~payload:(Rrep rrep));
  let key = (rrep.rp_src, rrep.rp_id, to_) in
  if attempt < t.config.rack_retries then begin
    let delay = t.config.rack_timeout *. (2.0 ** float_of_int attempt) in
    (match Hashtbl.find_opt t.racks key with
    | Some old -> Des.Engine.cancel old
    | None -> ());
    Hashtbl.replace t.racks key
      (Des.Engine.schedule ~span:span_timer t.ctx.Routing_intf.engine
         ~delay (fun () ->
           Hashtbl.remove t.racks key;
           t.rack_retx <- t.rack_retx + 1;
           send_rrep_reliable t ~to_ ~attempt:(attempt + 1) rrep))
  end
  else Hashtbl.remove t.racks key

let send_rack t ~to_ rrep =
  t.ctx.Routing_intf.mac_send
    (control_frame t ~dst:(Frame.Unicast to_) ~size:t.config.rack_size
       ~payload:(Rack { k_src = rrep.rp_src; k_id = rrep.rp_id }))

let handle_rack t ~from rack =
  let key = (rack.k_src, rack.k_id, from) in
  match Hashtbl.find_opt t.racks key with
  | Some timer ->
      Des.Engine.cancel timer;
      Hashtbl.remove t.racks key
  | None -> ()

let destination_reply t rreq ~last_hop =
  (* The destination controls its sequence number: a reset-required
     solicitation forces a strictly larger one (the only increment SRP
     ever performs). *)
  if rreq.rq_order.Ordering.sn > t.self_seqno then begin
    t.self_seqno <- rreq.rq_order.Ordering.sn;
    t.resets <- t.resets + 1;
    Trace.seqno_reset t.ctx.Routing_intf.trace ~node:t.ctx.Routing_intf.id
      ~seqno:t.self_seqno
  end;
  if rreq.rq_rr then begin
    t.self_seqno <- t.self_seqno + 1;
    t.resets <- t.resets + 1;
    (* the T bit / MAX_DENOM probe path: this reset was forced by label
       exhaustion, the cost the dense-set choice trades against width *)
    t.label_resets <- t.label_resets + 1;
    Trace.seqno_reset t.ctx.Routing_intf.trace ~node:t.ctx.Routing_intf.id
      ~seqno:t.self_seqno
  end;
  let rrep =
    {
      rp_src = rreq.rq_src;
      rp_id = rreq.rq_id;
      rp_dst = t.ctx.Routing_intf.id;
      rp_order = Ordering.destination_of t.labels ~sn:t.self_seqno;
      rp_dist = 0;
      rp_lifetime = t.config.route_lifetime;
      rp_n = not (has_active_route t ~dst:rreq.rq_src);
    }
  in
  send_rrep_reliable t ~to_:last_hop rrep

let intermediate_reply t rreq ~last_hop =
  let rrep =
    {
      rp_src = rreq.rq_src;
      rp_id = rreq.rq_id;
      rp_dst = rreq.rq_dst;
      rp_order = own_ordering t rreq.rq_dst;
      rp_dist = route_dist t rreq.rq_dst;
      rp_lifetime = t.config.route_lifetime;
      rp_n = not (has_active_route t ~dst:rreq.rq_src);
    }
  in
  send_rrep_reliable t ~to_:last_hop rrep

(* Start Distance Condition (Condition 1). *)
let sdc t rreq =
  has_active_route t ~dst:rreq.rq_dst
  &&
  let own = own_ordering t rreq.rq_dst in
  own.Ordering.sn > rreq.rq_order.Ordering.sn
  || (Ordering.precedes rreq.rq_order own && not rreq.rq_rr)

(* Eq. 10: the relayed solicitation carries the minimum label. *)
let relay_order t rreq =
  let own = own_ordering t rreq.rq_dst in
  let own_unassigned = not (Ordering.is_finite own) in
  if rreq.rq_u && own_unassigned then (t.infinite, true)
  else if own.Ordering.sn > rreq.rq_order.Ordering.sn then (own, false)
  else if own.Ordering.sn = rreq.rq_order.Ordering.sn then
    (Ordering.min own rreq.rq_order, false)
  else (rreq.rq_order, rreq.rq_u)

(* Eq. 11: the reset-required bit of the relayed solicitation. *)
let relay_rr t rreq =
  let own = own_ordering t rreq.rq_dst in
  let own_unassigned = not (Ordering.is_finite own) in
  if rreq.rq_u && own_unassigned then false
  else if own.Ordering.sn > rreq.rq_order.Ordering.sn then false
  else if
    (not (Ordering.precedes rreq.rq_order own))
    &&
    let (module L : Label.S) = t.labels in
    L.would_overflow rreq.rq_order.Ordering.label own.Ordering.label
  then true
  else rreq.rq_rr

let handle_rreq t ~from rreq =
  let me = t.ctx.Routing_intf.id in
  if rreq.rq_src = me then ()
  else if not (Seen_cache.witness t.seen ~origin:rreq.rq_src ~id:rreq.rq_id)
  then ()
  else begin
    (* become engaged: cache the solicitation ordering and reverse hop *)
    sweep_engagements t;
    Hashtbl.replace t.engagements
      (rreq.rq_src, rreq.rq_id)
      {
        e_cached = rreq.rq_order;
        e_last_hop = from;
        e_time = now t;
        e_replied = false;
      };
    (* process the advertisement piece: a labelled route to the source *)
    (match rreq.rq_adv with
    | Some adv when not rreq.rq_n ->
        ignore
          (set_route t ~dst:rreq.rq_src ~via:from ~adv_order:adv.ra_order
             ~adv_dist:adv.ra_dist ~cached:t.infinite
             ~lifetime:t.config.route_lifetime)
    | Some _ | None -> ());
    if rreq.rq_dst = me then destination_reply t rreq ~last_hop:from
    else if rreq.rq_d then begin
      (* D-bit probe: continue along the forward unicast path *)
      match best_successor t rreq.rq_dst with
      | Some next_hop when rreq.rq_ttl > 1 ->
          let relayed =
            {
              rreq with
              rq_hops = rreq.rq_hops + 1;
              rq_ttl = rreq.rq_ttl - 1;
              rq_n = true;
              rq_adv = None;
            }
          in
          t.ctx.Routing_intf.mac_send
            (control_frame t ~dst:(Frame.Unicast next_hop)
               ~size:t.config.rreq_size ~payload:(Rreq relayed))
      | Some _ | None -> ()
    end
    else if rreq.rq_hops >= t.config.min_reply_hops && sdc t rreq then
      intermediate_reply t rreq ~last_hop:from
    else if rreq.rq_ttl > 1 then begin
      let order, u = relay_order t rreq in
      let rr = relay_rr t rreq in
      let adv = rreq_advertisement t ~src:rreq.rq_src in
      let relayed =
        {
          rreq with
          rq_order = order;
          rq_u = u;
          rq_rr = rr;
          rq_hops = rreq.rq_hops + 1;
          rq_ttl = rreq.rq_ttl - 1;
          rq_n = adv = None;
          rq_adv = adv;
        }
      in
      broadcast_rreq t relayed ~jitter:t.config.relay_jitter
    end
  end

(* ------------------------------------------------------------------ *)
(* RREP handling (Procedures 3-4)                                      *)

let handle_rrep t ~from rrep =
  let me = t.ctx.Routing_intf.id in
  let terminus = rrep.rp_src = me in
  let engagement =
    if terminus then None
    else Hashtbl.find_opt t.engagements (rrep.rp_src, rrep.rp_id)
  in
  let cached =
    match engagement with
    | Some e -> e.e_cached
    | None -> t.infinite
  in
  let forward_ok =
    match engagement with Some e -> not e.e_replied | None -> terminus
  in
  if (not terminus) && engagement = None then ()
  else if not forward_ok then ()
  else begin
    let adopted =
      set_route t ~dst:rrep.rp_dst ~via:from ~adv_order:rrep.rp_order
        ~adv_dist:rrep.rp_dist ~cached ~lifetime:rrep.rp_lifetime
    in
    match adopted with
    | Adopted ->
        if terminus then begin
          Discovery.succeed t.discovery ~dst:rrep.rp_dst;
          let own = own_ordering t rrep.rp_dst in
          let needs_reset =
            let (module L : Label.S) = t.labels in
            L.over_reset_threshold ~max_denom:t.config.max_denom
              own.Ordering.label
          in
          if rrep.rp_n && t.config.probe_on_n then begin
            (* rebuild the reverse path: bump own seqno, probe forward.
               Off by default: the paper's CBR workload is unidirectional,
               so reverse paths are never exercised and SRP's sequence
               numbers stay identically zero (Fig. 7). *)
            t.self_seqno <- t.self_seqno + 1;
            t.resets <- t.resets + 1;
            Trace.seqno_reset t.ctx.Routing_intf.trace
              ~node:t.ctx.Routing_intf.id ~seqno:t.self_seqno;
            send_probe t ~dst:rrep.rp_dst
          end
          else if needs_reset then send_probe t ~dst:rrep.rp_dst
        end
        else begin
          match engagement with
          | None -> ()
          | Some e ->
              e.e_replied <- true;
              let r = route_for t rrep.rp_dst in
              Hashtbl.replace r.precursors e.e_last_hop ();
              let relayed =
                {
                  rrep with
                  rp_order = own_ordering t rrep.rp_dst;
                  rp_dist = route_dist t rrep.rp_dst;
                }
              in
              send_rrep_reliable t ~to_:e.e_last_hop relayed;
              Discovery.flush t.discovery ~dst:rrep.rp_dst
        end
    | Rejected ->
        (* infeasible or label exhausted: re-advertise our own route if we
           still have one (the paper's "new advertisement based on its
           current label"), otherwise drop *)
        if (not terminus) && has_active_route t ~dst:rrep.rp_dst then begin
          match engagement with
          | None -> ()
          | Some e ->
              e.e_replied <- true;
              let r = route_for t rrep.rp_dst in
              Hashtbl.replace r.precursors e.e_last_hop ();
              let relayed =
                {
                  rrep with
                  rp_order = own_ordering t rrep.rp_dst;
                  rp_dist = route_dist t rrep.rp_dst;
                }
              in
              send_rrep_reliable t ~to_:e.e_last_hop relayed
        end
  end

(* ------------------------------------------------------------------ *)
(* RERR handling                                                       *)

let handle_rerr t ~from rerr =
  let lost = ref [] in
  List.iter
    (fun dst ->
      match Hashtbl.find_opt t.routes dst with
      | None -> ()
      | Some r ->
          if Hashtbl.mem r.succs from then begin
            Hashtbl.remove r.succs from;
            Trace.route_del t.ctx.Routing_intf.trace
              ~node:t.ctx.Routing_intf.id ~dst ~via:from ~reason:"rerr";
            prune_succs t r;
            t.listener dst;
            if
              Hashtbl.length r.succs = 0
              && Hashtbl.length r.precursors > 0
            then lost := dst :: !lost
          end)
    rerr.re_unreachable;
  if !lost <> [] then send_rerr t ~dsts:!lost ~to_:Frame.Broadcast

(* ------------------------------------------------------------------ *)
(* Agent wiring                                                        *)

let handle_data t ~from data ~size =
  let me = t.ctx.Routing_intf.id in
  if data.Frame.final_dst = me then t.ctx.Routing_intf.deliver data
  else if forward_data t data ~size:(size - t.config.ip_overhead) then ()
  else begin
    (* no successor: route error back to the previous hop, drop the data *)
    send_rerr t ~dsts:[ data.Frame.final_dst ] ~to_:(Frame.Unicast from);
    t.ctx.Routing_intf.drop_data data ~reason:"no route at relay"
  end

let originate t data ~size =
  let dst = data.Frame.final_dst in
  if dst = t.ctx.Routing_intf.id then t.ctx.Routing_intf.deliver data
  else if forward_data t data ~size then ()
  else Discovery.park t.discovery ~dst data ~size

let unicast_failed t ~frame ~dst:next_hop =
  let lost = drop_link t next_hop in
  report_lost_routes t lost;
  match frame.Frame.payload with
  | Frame.Data data ->
      let size = frame.Frame.size - t.config.ip_overhead in
      if not (forward_data t data ~size) then
        (* packet cache: hold the packet and look for a new path *)
        Discovery.park t.discovery ~dst:data.Frame.final_dst data ~size
  | _ -> ()

let gauges t =
  (* non-mutating: counts live successor sets without the pruning sweeps,
     so periodic sampling cannot perturb protocol behaviour *)
  let time = Des.Engine.now t.ctx.Routing_intf.engine in
  let route_entries =
    Hashtbl.fold
      (fun _ r acc ->
        let live =
          Hashtbl.fold
            (fun _ s any -> any || s.s_expiry > time)
            r.succs false
        in
        if live then acc + 1 else acc)
      t.routes 0
  in
  {
    Routing_intf.own_seqno = t.self_seqno - 1;
    max_denominator = t.max_denom_seen;
    seqno_resets = t.resets;
    label_width_bits = t.label_width_max;
    label_resets = t.label_resets;
    route_entries;
    pending_packets = Discovery.parked t.discovery;
  }

let receive t ~src frame =
  match frame.Frame.payload with
  | Frame.Data data -> handle_data t ~from:src data ~size:frame.Frame.size
  | Rreq rreq -> handle_rreq t ~from:src rreq
  | Rrep rrep ->
      (* acknowledge first: even a reply we end up rejecting was received *)
      send_rack t ~to_:src rrep;
      handle_rrep t ~from:src rrep
  | Rerr rerr -> handle_rerr t ~from:src rerr
  | Rack rack -> handle_rack t ~from:src rack
  | _ -> ()

let create_full ?(config = default_config) ctx =
  let labels = Label_set.instance config.labels in
  (* lazy ties the knot: the request callbacks need the agent holding them *)
  let rec t =
    lazy
      {
        ctx;
        config;
        labels;
        infinite = Ordering.unassigned_of labels;
        routes = Hashtbl.create 32;
        engagements = Hashtbl.create 64;
        seen =
          Seen_cache.create ctx.Routing_intf.engine ~ttl:config.delete_period;
        discovery =
          Discovery.create ctx.Routing_intf.engine ~ttls:config.ttls
            ~capacity:Discovery.capacity ~hold:Discovery.hold
            ~send:(fun ~dst ~ttl ~attempt:_ ->
              (* the source never demands a reset: the T bit is set only by
                 relays that detect a fraction overflow (Eq. 11) *)
              originate_rreq (Lazy.force t) ~dst ~ttl ~rr:false)
            ~give_up:(fun ~dst ->
              (* graceful give-up: tell upstream nodes the destination is
                 gone rather than silently stalling their forwarding
                 through us *)
              let t = Lazy.force t in
              match Hashtbl.find_opt t.routes dst with
              | Some r when Hashtbl.length r.precursors > 0 ->
                  send_rerr t ~dsts:[ dst ] ~to_:Frame.Broadcast
              | Some _ | None -> ())
            ~forward:(fun data ~size -> forward_data (Lazy.force t) data ~size)
            ~drop:ctx.Routing_intf.drop_data;
        racks = Hashtbl.create 16;
        self_seqno = 1;
        next_rreq_id = 0;
        max_denom_seen = 1;
        label_width_max = 0;
        label_resets = 0;
        resets = 0;
        rack_retx = 0;
        listener = ignore;
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

let ordering t ~dst = own_ordering t dst

let successor_orderings t ~dst = succ_ordering_list t dst

let own_seqno t = t.self_seqno

let on_route_change t f = t.listener <- f

let rack_retransmits t = t.rack_retx
