open Ondemand

let span_timer = Obs.span "proto.srp.timer"

module Ordering = Slr.Ordering
module Label = Slr.Label
module Label_set = Slr.Label_set
module Fraction = Slr.Fraction
module New_order = Slr.New_order
module Frame = Wireless.Frame

type config = {
  max_denom : int;
  min_reply_hops : int;
  lie_k : int;
  labels : Label_set.id;
  probe_on_n : bool;
}

let default_config =
  {
    max_denom = 1_000_000_000;
    min_reply_hops = 0;
    lie_k = 10_000;
    labels = Label_set.default;
    probe_on_n = false;
  }

(* the initial RACK wait before a route reply is resent, s; the resends
   before giving up; and the message sizes, bytes *)
let rack_timeout = 0.1
let rack_retries = 2
let rreq_size = 52
let rrep_size = 44
let rack_size = 26

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

type ext = {
  config : config;
  labels : (module Label.S);  (** resolved once from [config.labels] *)
  infinite : Ordering.t;  (** this instance's unassigned sentinel *)
  engagements : Ordering.t engagements;
      (** the cached solicitation ordering C per engaged request *)
  (* RREPs awaiting a RACK, keyed by (rreq source, rreq id, next hop) *)
  racks : (int * int * int, Des.Engine.handle) Hashtbl.t;
  mutable max_denom_seen : int;
  mutable label_width_max : int;
  mutable label_resets : int;
  mutable resets : int;
}

type t = (route, ext) Ondemand.t

(* DELETE_PERIOD: once the retention horizon of an invalid route passes,
   the node may forget its label (Definition 3). *)
let own_ordering t dst =
  if dst = t.ctx.Routing_intf.id then
    Ordering.destination_of t.ext.labels ~sn:t.self_seqno
  else begin
    match Hashtbl.find_opt t.routes dst with
    | None -> t.ext.infinite
    | Some r ->
        if
          Hashtbl.length r.succs = 0
          && now t > r.own_keep_until
          && not (Ordering.is_unassigned r.own)
        then r.own <- t.ext.infinite;
        r.own
  end

let retain_label t r = r.own_keep_until <- now t +. delete_period

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

module O = Make (struct
  type nonrec route = route
  type nonrec ext = ext
  type unreachable = int

  let span = span_timer

  let fresh t =
    {
      own = t.ext.infinite;
      own_keep_until = 0.0;
      succs = Hashtbl.create 4;
      precursors = Hashtbl.create 4;
    }

  (* non-mutating: counts live successor sets without the pruning sweeps,
     so periodic sampling cannot perturb protocol behaviour *)
  let usable time r =
    Hashtbl.fold (fun _ s any -> any || s.s_expiry > time) r.succs false

  let next_hop t dst =
    match best_successor t dst with Some next_hop -> next_hop | None -> -1

  (* [next_hop] has just picked this successor from the live set *)
  let refresh t dst ~next_hop =
    let r = Hashtbl.find t.routes dst in
    retain_label t r;
    let s = Hashtbl.find r.succs next_hop in
    s.s_expiry <- Stdlib.max s.s_expiry (now t +. route_lifetime)

  let unreachable _ dst = dst
  let rerr dsts = Rerr { re_unreachable = dsts }
end)

(* §V heuristic: understate the solicitation ordering so only strictly
   better-ordered nodes reply. The perturbation is instance-specific. *)
let lie_about t order =
  let (module L : Label.S) = t.ext.labels in
  let label = L.understate ~k:t.ext.config.lie_k order.Ordering.label in
  if label == order.Ordering.label then order
  else Ordering.v ~sn:order.Ordering.sn ~label

(* Remove [neighbor] as successor everywhere (the link is gone); returns
   the destinations that lost their last successor and have precursors to
   tell. *)
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
        if Hashtbl.length r.succs = 0 && Hashtbl.length r.precursors > 0
        then lost := dst :: !lost
      end)
    t.routes;
  List.iter t.listener !changed;
  !lost

(* ------------------------------------------------------------------ *)
(* Solicitations                                                       *)

(* The advertisement piece of a RREQ this node emits: its route to the
   RREQ source (itself at origination). *)
let rreq_advertisement t ~src =
  if src = t.ctx.Routing_intf.id then
    Some
      { ra_order = Ordering.destination_of t.ext.labels ~sn:t.self_seqno;
        ra_dist = 0 }
  else if has_active_route t ~dst:src then
    Some { ra_order = own_ordering t src; ra_dist = route_dist t src }
  else None

(* A request this node originates, to [to_]. *)
let solicit t ~to_ ~dst ~order ~u ~rr ~d ~ttl =
  t.next_rreq_id <- t.next_rreq_id + 1;
  let rreq =
    {
      rq_src = t.ctx.Routing_intf.id;
      rq_id = t.next_rreq_id;
      rq_dst = dst;
      rq_order = order;
      rq_u = u;
      rq_rr = rr;
      rq_d = d;
      rq_n = false;
      rq_hops = 0;
      rq_ttl = ttl;
      rq_adv = rreq_advertisement t ~src:t.ctx.Routing_intf.id;
    }
  in
  send t ~dst:to_ ~size:rreq_size ~kind:"rreq" (Rreq rreq)

let originate_rreq t ~dst ~ttl ~rr =
  let own = own_ordering t dst in
  let unassigned = not (Ordering.is_finite own) in
  let order = if unassigned then t.ext.infinite else lie_about t own in
  solicit t ~to_:Frame.Broadcast ~dst ~order ~u:unassigned ~rr ~d:false ~ttl

(* D-bit probe: unicast along the forward path, forcing the destination
   itself to reply with a reset (paper §III, MAX_DENOM and N-bit cases). *)
let send_probe t ~dst =
  match best_successor t dst with
  | None -> ()
  | Some next_hop ->
      solicit t ~to_:(Frame.Unicast next_hop) ~dst
        ~order:(own_ordering t dst) ~u:false ~rr:true ~d:true
        ~ttl:Routing_intf.data_ttl

(* ------------------------------------------------------------------ *)
(* Procedure 3 (Set Route): adopt an advertisement if NEWORDER is finite *)

type adoption = Adopted | Rejected

let set_route t ~dst ~via ~adv_order ~adv_dist ~cached ~lifetime =
  let current = own_ordering t dst in
  if not (New_order.feasible ~current ~adv:adv_order) then Rejected
  else begin
    let result =
      New_order.compute_with ~labels:t.ext.labels ~current ~cached
        ~adv:adv_order
    in
    if not (Ordering.is_finite result.New_order.order) then Rejected
    else begin
      let g = result.New_order.order in
      let r = O.route_for t dst in
      r.own <- g;
      retain_label t r;
      (match g.Ordering.label with
      | Label.Frac f when f.Fraction.den > t.ext.max_denom_seen ->
          t.ext.max_denom_seen <- f.Fraction.den
      | Label.Frac _ | Label.Big _ | Label.Lex _ -> ());
      let width = Label.width_bits g.Ordering.label in
      if width > t.ext.label_width_max then t.ext.label_width_max <- width;
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

(* RACK: protocol-level acknowledged RREP delivery (paper §III). The MAC
   already retries each hop, but a receiver that crashed after the MAC ACK,
   or a reply lost to a link that died mid-exchange, would otherwise stall
   the whole discovery until the requester's ring timeout. Each unicast
   RREP therefore awaits a RACK from the next hop and is retransmitted with
   binary exponential backoff, at most [rack_retries] times. *)
let rec send_rrep_reliable t ~to_ ?(attempt = 0) rrep =
  send t ~dst:(Frame.Unicast to_) ~size:rrep_size ~kind:"rrep"
    (Rrep rrep);
  let key = (rrep.rp_src, rrep.rp_id, to_) in
  if attempt < rack_retries then begin
    let delay = rack_timeout *. (2.0 ** float_of_int attempt) in
    (match Hashtbl.find_opt t.ext.racks key with
    | Some old -> Des.Engine.cancel old
    | None -> ());
    Hashtbl.replace t.ext.racks key
      (Des.Engine.schedule ~span:span_timer t.ctx.Routing_intf.engine
         ~delay (fun () ->
           Hashtbl.remove t.ext.racks key;
           send_rrep_reliable t ~to_ ~attempt:(attempt + 1) rrep))
  end
  else Hashtbl.remove t.ext.racks key

let send_rack t ~to_ rrep =
  send t ~dst:(Frame.Unicast to_) ~size:rack_size ~kind:"rack"
    (Rack { k_src = rrep.rp_src; k_id = rrep.rp_id })

let handle_rack t ~from rack =
  let key = (rack.k_src, rack.k_id, from) in
  match Hashtbl.find_opt t.ext.racks key with
  | Some timer ->
      Des.Engine.cancel timer;
      Hashtbl.remove t.ext.racks key
  | None -> ()

let reset_seqno t sn =
  t.self_seqno <- sn;
  t.ext.resets <- t.ext.resets + 1;
  Trace.seqno_reset t.ctx.Routing_intf.trace ~node:t.ctx.Routing_intf.id
    ~seqno:sn

let destination_reply t rreq ~last_hop =
  (* The destination controls its sequence number: a reset-required
     solicitation forces a strictly larger one (the only increment SRP
     ever performs). *)
  if rreq.rq_order.Ordering.sn > t.self_seqno then
    reset_seqno t rreq.rq_order.Ordering.sn;
  if rreq.rq_rr then begin
    (* the T bit / MAX_DENOM probe path: this reset was forced by label
       exhaustion, the cost the dense-set choice trades against width *)
    t.ext.label_resets <- t.ext.label_resets + 1;
    reset_seqno t (t.self_seqno + 1)
  end;
  let rrep =
    {
      rp_src = rreq.rq_src;
      rp_id = rreq.rq_id;
      rp_dst = t.ctx.Routing_intf.id;
      rp_order = Ordering.destination_of t.ext.labels ~sn:t.self_seqno;
      rp_dist = 0;
      rp_lifetime = route_lifetime;
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
      rp_lifetime = route_lifetime;
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
  if rreq.rq_u && own_unassigned then (t.ext.infinite, true)
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
    let (module L : Label.S) = t.ext.labels in
    L.would_overflow rreq.rq_order.Ordering.label own.Ordering.label
  then true
  else rreq.rq_rr

let handle_rreq t ~from rreq =
  let me = t.ctx.Routing_intf.id in
  if first_sight t ~src:rreq.rq_src ~id:rreq.rq_id then begin
    (* become engaged: cache the solicitation ordering and reverse hop *)
    engage t t.ext.engagements ~src:rreq.rq_src ~id:rreq.rq_id
      ~cached:rreq.rq_order ~last_hop:from;
    (* process the advertisement piece: a labelled route to the source *)
    (match rreq.rq_adv with
    | Some adv when not rreq.rq_n ->
        ignore
          (set_route t ~dst:rreq.rq_src ~via:from ~adv_order:adv.ra_order
             ~adv_dist:adv.ra_dist ~cached:t.ext.infinite
             ~lifetime:route_lifetime)
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
          send t ~dst:(Frame.Unicast next_hop) ~size:rreq_size
            ~kind:"rreq" (Rreq relayed)
      | Some _ | None -> ()
    end
    else if rreq.rq_hops >= t.ext.config.min_reply_hops && sdc t rreq then
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
      O.relay t ~size:rreq_size ~kind:"rreq" (Rreq relayed)
    end
  end

(* ------------------------------------------------------------------ *)
(* RREP handling (Procedures 3-4)                                      *)

(* Procedure 4: answer an engaged request with this node's own route to
   the destination; the last hop becomes a precursor. *)
let advertise t e rrep =
  e.e_replied <- true;
  let r = O.route_for t rrep.rp_dst in
  Hashtbl.replace r.precursors e.e_last_hop ();
  let relayed =
    {
      rrep with
      rp_order = own_ordering t rrep.rp_dst;
      rp_dist = route_dist t rrep.rp_dst;
    }
  in
  send_rrep_reliable t ~to_:e.e_last_hop relayed

let handle_rrep t ~from rrep =
  let terminus = rrep.rp_src = t.ctx.Routing_intf.id in
  let engagement =
    if terminus then None
    else engagement t.ext.engagements ~src:rrep.rp_src ~id:rrep.rp_id
  in
  match engagement with
  | None when not terminus -> ()
  | Some e when e.e_replied -> ()
  | Some _ | None -> (
      let cached =
        match engagement with Some e -> e.e_cached | None -> t.ext.infinite
      in
      match
        ( set_route t ~dst:rrep.rp_dst ~via:from ~adv_order:rrep.rp_order
            ~adv_dist:rrep.rp_dist ~cached ~lifetime:rrep.rp_lifetime,
          engagement )
      with
      | Adopted, None ->
          Discovery.succeed t.discovery ~dst:rrep.rp_dst;
          let own = own_ordering t rrep.rp_dst in
          let needs_reset =
            let (module L : Label.S) = t.ext.labels in
            L.over_reset_threshold ~max_denom:t.ext.config.max_denom
              own.Ordering.label
          in
          if rrep.rp_n && t.ext.config.probe_on_n then begin
            (* rebuild the reverse path: bump own seqno, probe forward.
               Off by default: the paper's CBR workload is unidirectional,
               so reverse paths are never exercised and SRP's sequence
               numbers stay identically zero (Fig. 7). *)
            reset_seqno t (t.self_seqno + 1);
            send_probe t ~dst:rrep.rp_dst
          end
          else if needs_reset then send_probe t ~dst:rrep.rp_dst
      | Adopted, Some e ->
          advertise t e rrep;
          Discovery.flush t.discovery ~dst:rrep.rp_dst
      (* infeasible or label exhausted: re-advertise our own route if we
         still have one (the paper's "new advertisement based on its
         current label"), otherwise drop *)
      | Rejected, Some e when has_active_route t ~dst:rrep.rp_dst ->
          advertise t e rrep
      | Rejected, (Some _ | None) -> ())

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
  if !lost <> [] then O.send_rerr t !lost ~to_:Frame.Broadcast

(* ------------------------------------------------------------------ *)
(* Agent wiring                                                        *)

let unicast_failed t ~frame ~dst:next_hop =
  O.send_rerr t (drop_link t next_hop) ~to_:Frame.Broadcast;
  (* packet cache: resend along another successor, or hold the packet and
     look for a new path *)
  ignore (O.salvage t frame ~retry:true)

let gauges t =
  {
    Routing_intf.own_seqno = t.self_seqno - 1;
    max_denominator = t.ext.max_denom_seen;
    seqno_resets = t.ext.resets;
    label_width_bits = t.ext.label_width_max;
    label_resets = t.ext.label_resets;
    route_entries = O.route_entries t;
    pending_packets = Discovery.parked t.discovery;
  }

let control t ~src = function
  | Rreq rreq -> handle_rreq t ~from:src rreq
  | Rrep rrep ->
      (* acknowledge first: even a reply we end up rejecting was received *)
      send_rack t ~to_:src rrep;
      handle_rrep t ~from:src rrep
  | Rerr rerr -> handle_rerr t ~from:src rerr
  | Rack rack -> handle_rack t ~from:src rack
  | _ -> ()

(* each label set's unassigned sentinel, built once: orderings are
   immutable, so every agent shares it and building one allocates none *)
let sentinels =
  List.map
    (fun id -> (id, Ordering.unassigned_of (Label_set.instance id)))
    Label_set.all

(* graceful give-up: tell upstream nodes the destination is gone rather
   than silently stalling their forwarding through us *)
let give_up t ~dst =
  match Hashtbl.find_opt t.routes dst with
  | Some r when Hashtbl.length r.precursors > 0 ->
      O.send_rerr t [ dst ] ~to_:Frame.Broadcast
  | Some _ | None -> ()

let create_full ?(config = default_config) ctx =
  let ext =
    {
      config;
      labels = Label_set.instance config.labels;
      infinite = List.assoc config.labels sentinels;
      engagements = engagements ();
      racks = Hashtbl.create 16;
      max_denom_seen = 1;
      label_width_max = 0;
      label_resets = 0;
      resets = 0;
    }
  in
  O.create ctx ~ext ~self_seqno:1 ~seen_ttl:delete_period
    ~send:(fun t ~dst ~ttl ~attempt:_ ->
      (* the source never demands a reset: the T bit is set only by relays
         that detect a fraction overflow (Eq. 11) *)
      originate_rreq t ~dst ~ttl ~rr:false)
    ~give_up ~control ~unicast_failed ~gauges

let create ?config ctx = snd (create_full ?config ctx)

let ordering t ~dst = own_ordering t dst

let successor_orderings t ~dst =
  List.map (fun (b, s) -> (b, s.s_order)) (live_succs t dst)

let own_seqno t = t.self_seqno

let on_route_change t f = t.listener <- f
