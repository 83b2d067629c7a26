(* White-box tests for the routing agents. Each agent runs against a stub
   context that captures MAC transmissions, deliveries, and drops, so
   individual message handlers can be exercised exactly (SRP's Procedures
   1-4, SDC, Eqs. 9-11; and the baselines' equivalents). *)

module RI = Protocols.Routing_intf
module Frame = Wireless.Frame
module O = Slr.Ordering
module F = Slr.Fraction

type harness = {
  engine : Des.Engine.t;
  ctx : RI.ctx;
  sent : Frame.t list ref;
  delivered : Frame.data list ref;
  dropped : (Frame.data * string) list ref;
}

let harness ?(id = 0) () =
  let engine = Des.Engine.create () in
  let sent = ref [] in
  let delivered = ref [] in
  let dropped = ref [] in
  let ctx =
    {
      RI.id;
      node_count = 16;
      engine;
      rng = Des.Rng.create 99L;
      trace = Trace.null;
      mac_send = (fun f -> sent := f :: !sent);
      deliver = (fun d -> delivered := d :: !delivered);
      drop_data = (fun d ~reason -> dropped := (d, reason) :: !dropped);
    }
  in
  { engine; ctx; sent; delivered; dropped }

let run h = Des.Engine.run h.engine ~until:(Des.Engine.now h.engine +. 1.0)

(* advance just far enough for jittered sends, but not into ring retries *)
let run_short h = Des.Engine.run h.engine ~until:(Des.Engine.now h.engine +. 0.02)

let take_sent h =
  let frames = List.rev !(h.sent) in
  h.sent := [];
  frames

let mk_data ?(origin = 0) ?(dst = 5) ?(seq = 1) () =
  {
    Frame.origin;
    final_dst = dst;
    flow = 0;
    seq;
    sent_at = 0.0;
    hops = 0;
  }

let ord sn num den = O.make ~sn ~frac:(F.make ~num ~den)

(* ------------------------------------------------------------------ *)
(* SRP *)

module Srp = Protocols.Srp

let find_rreq frames =
  List.filter_map
    (fun f -> match f.Frame.payload with Srp.Rreq r -> Some (f, r) | _ -> None)
    frames

let find_rrep frames =
  List.filter_map
    (fun f -> match f.Frame.payload with Srp.Rrep r -> Some (f, r) | _ -> None)
    frames

let test_srp_originate_unassigned () =
  let h = harness () in
  let t, agent = Srp.create_full h.ctx in
  agent.RI.originate (mk_data ()) ~size:512;
  run_short h;
  match find_rreq (take_sent h) with
  | [ (frame, rreq) ] ->
      Alcotest.(check bool) "broadcast" true (frame.Frame.dst = Frame.Broadcast);
      Alcotest.(check bool) "U bit" true rreq.Srp.rq_u;
      Alcotest.(check bool) "no reset" false rreq.Srp.rq_rr;
      Alcotest.(check int) "first ring ttl" 1 rreq.Srp.rq_ttl;
      Alcotest.(check int) "seqno untouched" 1 (Srp.own_seqno t)
  | l -> Alcotest.failf "expected 1 RREQ, got %d" (List.length l)

let test_srp_destination_reply () =
  let h = harness ~id:5 () in
  let t, agent = Srp.create_full h.ctx in
  let rreq =
    {
      Srp.rq_src = 0;
      rq_id = 1;
      rq_dst = 5;
      rq_order = O.unassigned;
      rq_u = true;
      rq_rr = false;
      rq_d = false;
      rq_n = false;
      rq_hops = 2;
      rq_ttl = 5;
      rq_adv = None;
    }
  in
  agent.RI.receive ~src:3
    (Frame.make ~src:3 ~dst:Frame.Broadcast ~size:52 ~payload:(Srp.Rreq rreq));
  run_short h;
  (match find_rrep (take_sent h) with
  | [ (frame, rrep) ] ->
      Alcotest.(check bool) "unicast to last hop" true
        (frame.Frame.dst = Frame.Unicast 3);
      Alcotest.(check int) "advertises itself" 5 rrep.Srp.rp_dst;
      Alcotest.(check int) "destination seqno" 1 rrep.Srp.rp_order.O.sn;
      Alcotest.(check bool) "fraction 0/1" true
        (F.is_zero (O.frac rrep.Srp.rp_order));
      Alcotest.(check int) "distance 0" 0 rrep.Srp.rp_dist
  | l -> Alcotest.failf "expected 1 RREP, got %d" (List.length l));
  (* the last hop RACKs the reply: no retransmissions follow *)
  agent.RI.receive ~src:3
    (Frame.make ~src:3 ~dst:(Frame.Unicast 5) ~size:12
       ~payload:(Srp.Rack { Srp.k_src = 0; k_id = 1 }));
  run h;
  Alcotest.(check int) "acked reply is not retransmitted" 0
    (List.length (find_rrep (take_sent h)));
  (* a reset-required solicitation forces a strictly larger seqno *)
  agent.RI.receive ~src:3
    (Frame.make ~src:3 ~dst:Frame.Broadcast ~size:52
       ~payload:(Srp.Rreq { rreq with rq_id = 2; rq_rr = true }));
  run h;
  Alcotest.(check int) "seqno bumped by T bit" 2 (Srp.own_seqno t)

let feed_rrep h agent ~dst ~via ~order ~dist ~id =
  agent.RI.receive ~src:via
    (Frame.make ~src:via ~dst:(Frame.Unicast h.ctx.RI.id) ~size:44
       ~payload:
         (Srp.Rrep
            {
              rp_src = h.ctx.RI.id;
              rp_id = id;
              rp_dst = dst;
              rp_order = order;
              rp_dist = dist;
              rp_lifetime = 10.0;
              rp_n = false;
            }));
  run_short h

let adopt_route h agent ~dst ~via ~order ~dist =
  (* deliver a terminus RREP so the agent under test adopts a route *)
  agent.RI.originate (mk_data ~dst ()) ~size:512;
  run_short h;
  let id =
    match find_rreq (take_sent h) with
    | (_, r) :: _ -> r.Srp.rq_id
    | [] -> Alcotest.fail "no RREQ emitted"
  in
  feed_rrep h agent ~dst ~via ~order ~dist ~id

let test_srp_adopts_route_and_flushes () =
  let h = harness () in
  let t, agent = Srp.create_full h.ctx in
  adopt_route h agent ~dst:5 ~via:3 ~order:(O.destination ~sn:1) ~dist:0;
  Alcotest.(check bool) "route active" true (Srp.has_active_route t ~dst:5);
  (* NEWORDER case II: next element of the destination's label *)
  Alcotest.(check bool) "own ordering is (1, 1/2)" true
    (O.equal (Srp.ordering t ~dst:5) (ord 1 1 2));
  (* the buffered packet went out to the successor *)
  let datas =
    List.filter (fun f -> Frame.is_data f) (take_sent h)
  in
  (match datas with
  | [ f ] ->
      Alcotest.(check bool) "to successor 3" true
        (f.Frame.dst = Frame.Unicast 3)
  | l -> Alcotest.failf "expected 1 data frame, got %d" (List.length l));
  (* forwarding more data uses the same successor *)
  agent.RI.originate (mk_data ~seq:2 ()) ~size:512;
  run h;
  Alcotest.(check int) "forwarded directly" 1
    (List.length (List.filter Frame.is_data (take_sent h)))

let test_srp_lie_heuristic () =
  let h = harness () in
  let t, agent = Srp.create_full h.ctx in
  adopt_route h agent ~dst:5 ~via:3 ~order:(ord 1 1 3) ~dist:1;
  ignore (take_sent h);
  (* own ordering is split/next of 1/3 -> some p/q; force a rediscovery and
     inspect the solicitation's understated label *)
  let own = Srp.ordering t ~dst:5 in
  Des.Engine.run h.engine ~until:20.0;
  (* route expired (lifetime 10 s) but the label is retained *)
  Alcotest.(check bool) "route expired" false (Srp.has_active_route t ~dst:5);
  agent.RI.originate (mk_data ~seq:3 ()) ~size:512;
  run_short h;
  match find_rreq (take_sent h) with
  | (_, rreq) :: _ ->
      Alcotest.(check bool) "not unassigned" false rreq.Srp.rq_u;
      Alcotest.(check bool) "lied below own ordering" true
        (O.precedes own rreq.Srp.rq_order
         || F.compare (O.frac rreq.Srp.rq_order) (O.frac own) < 0);
      (* (p-1)/(q-1) for own = (1, p/q) with p > 1 *)
      let f = O.frac own in
      if f.F.num > 1 then begin
        let lied = O.frac rreq.Srp.rq_order in
        Alcotest.(check int) "num - 1" (f.F.num - 1) lied.F.num;
        Alcotest.(check int) "den - 1" (f.F.den - 1) lied.F.den
      end
  | [] -> Alcotest.fail "no RREQ"

let test_srp_relay_strengthens () =
  let h = harness ~id:7 () in
  let t, agent = Srp.create_full h.ctx in
  (* give node 7 a good label for destination 5 *)
  adopt_route h agent ~dst:5 ~via:3 ~order:(O.destination ~sn:1) ~dist:0;
  ignore (take_sent h);
  Des.Engine.run h.engine ~until:15.0;
  (* now relay a worse solicitation: Eq. 10 must substitute the path min.
     An expired route means node 7 cannot reply, so it must relay. *)
  Alcotest.(check bool) "route expired" false (Srp.has_active_route t ~dst:5);
  let own = Srp.ordering t ~dst:5 in
  let rreq =
    {
      Srp.rq_src = 1;
      rq_id = 9;
      rq_dst = 5;
      rq_order = ord 1 9 10;
      rq_u = false;
      rq_rr = false;
      rq_d = false;
      rq_n = true;
      rq_hops = 1;
      rq_ttl = 4;
      rq_adv = None;
    }
  in
  agent.RI.receive ~src:2
    (Frame.make ~src:2 ~dst:Frame.Broadcast ~size:52 ~payload:(Srp.Rreq rreq));
  run h;
  match find_rreq (take_sent h) with
  | [ (_, relayed) ] ->
      Alcotest.(check bool) "strengthened to own (lower) ordering" true
        (O.equal relayed.Srp.rq_order (O.min own (ord 1 9 10)));
      Alcotest.(check int) "hops incremented" 2 relayed.Srp.rq_hops;
      Alcotest.(check int) "ttl decremented" 3 relayed.Srp.rq_ttl
  | l -> Alcotest.failf "expected relayed RREQ, got %d frames" (List.length l)

let test_srp_sdc_intermediate_reply () =
  let h = harness ~id:7 () in
  let _, agent = Srp.create_full h.ctx in
  adopt_route h agent ~dst:5 ~via:3 ~order:(O.destination ~sn:1) ~dist:0;
  ignore (take_sent h);
  (* the request's ordering is higher than ours and hops >= min_reply_hops:
     SDC holds, node 7 answers on behalf of the destination *)
  let rreq =
    {
      Srp.rq_src = 1;
      rq_id = 11;
      rq_dst = 5;
      rq_order = ord 1 9 10;
      rq_u = false;
      rq_rr = false;
      rq_d = false;
      rq_n = true;
      rq_hops = 2;
      rq_ttl = 4;
      rq_adv = None;
    }
  in
  agent.RI.receive ~src:2
    (Frame.make ~src:2 ~dst:Frame.Broadcast ~size:52 ~payload:(Srp.Rreq rreq));
  run h;
  (match find_rrep (take_sent h) with
  | ((frame, rrep) :: _) as copies ->
      (* no RACK ever comes back, so the reply is retransmitted with
         backoff until the cap: 1 original + rack_retries resends *)
      Alcotest.(check int) "unacked reply retransmitted to the cap" 3
        (List.length copies);
      Alcotest.(check bool) "unicast back" true
        (frame.Frame.dst = Frame.Unicast 2);
      Alcotest.(check int) "advertises dst 5" 5 rrep.Srp.rp_dst
  | [] -> Alcotest.fail "expected intermediate RREP");
  (* reset-required solicitations suppress intermediate replies *)
  agent.RI.receive ~src:2
    (Frame.make ~src:2 ~dst:Frame.Broadcast ~size:52
       ~payload:(Srp.Rreq { rreq with rq_id = 12; rq_rr = true }));
  run h;
  Alcotest.(check int) "no reply under T bit" 0
    (List.length (find_rrep (take_sent h)))

let test_srp_relay_rr_on_overflow () =
  let h = harness ~id:7 () in
  let _, agent = Srp.create_full h.ctx in
  (* adopting (bound-2)/(bound-1) lands our own label on (bound-1)/bound *)
  let near = F.make ~num:(F.bound - 2) ~den:(F.bound - 1) in
  adopt_route h agent ~dst:5 ~via:3 ~order:(O.make ~sn:1 ~frac:near) ~dist:0;
  ignore (take_sent h);
  (* out-of-order relay whose fraction would overflow on another split:
     Eq. 11 third case demands the T bit *)
  let rreq =
    {
      Srp.rq_src = 1;
      rq_id = 21;
      rq_dst = 5;
      rq_order = O.make ~sn:1 ~frac:(F.make ~num:1 ~den:F.bound);
      rq_u = false;
      rq_rr = false;
      rq_d = false;
      rq_n = true;
      rq_hops = 0;
      rq_ttl = 4;
      rq_adv = None;
    }
  in
  agent.RI.receive ~src:2
    (Frame.make ~src:2 ~dst:Frame.Broadcast ~size:52 ~payload:(Srp.Rreq rreq));
  run h;
  match
    List.filter (fun (_, r) -> r.Srp.rq_id = 21) (find_rreq (take_sent h))
  with
  | [ (_, relayed) ] ->
      Alcotest.(check bool) "T bit set on overflow" true relayed.Srp.rq_rr
  | l -> Alcotest.failf "expected relay, got %d" (List.length l)

let test_srp_successor_elimination () =
  let h = harness () in
  let t, agent = Srp.create_full h.ctx in
  adopt_route h agent ~dst:5 ~via:3 ~order:(ord 1 1 2) ~dist:1;
  ignore (take_sent h);
  (* second, much better advertisement from another neighbour: adopting it
     must eliminate the now out-of-order successor 3 (Algorithm 1 line 13) *)
  feed_rrep h agent ~dst:5 ~via:4 ~order:(O.destination ~sn:2) ~dist:0 ~id:999;
  let succs = List.map fst (Srp.successor_orderings t ~dst:5) in
  Alcotest.(check (list int)) "stale successor eliminated" [ 4 ]
    (List.sort compare succs)

let test_srp_rerr_removes_successor () =
  let h = harness () in
  let t, agent = Srp.create_full h.ctx in
  adopt_route h agent ~dst:5 ~via:3 ~order:(O.destination ~sn:1) ~dist:0;
  ignore (take_sent h);
  agent.RI.receive ~src:3
    (Frame.make ~src:3 ~dst:(Frame.Unicast 0) ~size:32
       ~payload:(Srp.Rerr { re_unreachable = [ 5 ] }));
  Alcotest.(check bool) "route gone" false (Srp.has_active_route t ~dst:5)

let test_srp_link_failure_recovery () =
  let h = harness () in
  let t, agent = Srp.create_full h.ctx in
  adopt_route h agent ~dst:5 ~via:3 ~order:(O.destination ~sn:1) ~dist:0;
  ignore (take_sent h);
  let frame =
    Frame.make ~src:0 ~dst:(Frame.Unicast 3) ~size:532
      ~payload:(Frame.Data (mk_data ~seq:9 ()))
  in
  agent.RI.unicast_failed ~frame ~dst:3;
  run h;
  Alcotest.(check bool) "successor dropped" false
    (Srp.has_active_route t ~dst:5);
  (* the packet-cache heuristic: the data is held and a new discovery runs *)
  Alcotest.(check bool) "rediscovery started" true
    (find_rreq (take_sent h) <> [])

(* ------------------------------------------------------------------ *)
(* AODV *)

module Aodv = Protocols.Aodv

let aodv_rreq frames =
  List.filter_map
    (fun f -> match f.Frame.payload with Aodv.Rreq r -> Some r | _ -> None)
    frames

let aodv_rrep frames =
  List.filter_map
    (fun f -> match f.Frame.payload with Aodv.Rrep r -> Some r | _ -> None)
    frames

let test_aodv_origination_increments_seqno () =
  let h = harness () in
  let t, agent = Aodv.create_full h.ctx in
  Alcotest.(check int) "starts at zero" 0 (Aodv.own_seqno t);
  agent.RI.originate (mk_data ()) ~size:512;
  run_short h;
  Alcotest.(check int) "incremented per RREQ" 1 (Aodv.own_seqno t);
  Alcotest.(check int) "one rreq" 1 (List.length (aodv_rreq (take_sent h)))

let test_aodv_destination_reply () =
  let h = harness ~id:5 () in
  let t, agent = Aodv.create_full h.ctx in
  agent.RI.receive ~src:3
    (Frame.make ~src:3 ~dst:Frame.Broadcast ~size:44
       ~payload:
         (Aodv.Rreq
            {
              rq_src = 0;
              rq_src_seqno = 4;
              rq_id = 1;
              rq_dst = 5;
              rq_dst_seqno = Some 7;
              rq_hops = 2;
              rq_ttl = 5;
            }));
  run h;
  (match aodv_rrep (take_sent h) with
  | [ rrep ] ->
      Alcotest.(check bool) "covers requested seqno" true
        (rrep.Aodv.rp_dst_seqno >= 7)
  | l -> Alcotest.failf "expected RREP, got %d" (List.length l));
  Alcotest.(check bool) "own seqno raised" true (Aodv.own_seqno t >= 7);
  (* reverse route to the originator was installed *)
  Alcotest.(check (option int)) "reverse route" (Some 3)
    (Aodv.next_hop t ~dst:0)

let test_aodv_rrep_builds_forward_route () =
  let h = harness () in
  let t, agent = Aodv.create_full h.ctx in
  agent.RI.originate (mk_data ()) ~size:512;
  run h;
  ignore (take_sent h);
  agent.RI.receive ~src:2
    (Frame.make ~src:2 ~dst:(Frame.Unicast 0) ~size:40
       ~payload:
         (Aodv.Rrep
            {
              rp_src = 0;
              rp_dst = 5;
              rp_dst_seqno = 3;
              rp_hops = 1;
              rp_lifetime = 10.0;
            }));
  Alcotest.(check (option int)) "forward route via 2" (Some 2)
    (Aodv.next_hop t ~dst:5);
  Alcotest.(check (option int)) "seqno recorded" (Some 3)
    (Aodv.route_seqno t ~dst:5);
  run h;
  (* pending data flushed *)
  Alcotest.(check int) "data flushed" 1
    (List.length (List.filter Frame.is_data (take_sent h)))

let test_aodv_stale_rrep_ignored () =
  let h = harness () in
  let t, agent = Aodv.create_full h.ctx in
  let rrep seqno hops via =
    agent.RI.receive ~src:via
      (Frame.make ~src:via ~dst:(Frame.Unicast 0) ~size:40
         ~payload:
           (Aodv.Rrep
              {
                rp_src = 0;
                rp_dst = 5;
                rp_dst_seqno = seqno;
                rp_hops = hops;
                rp_lifetime = 10.0;
              }))
  in
  rrep 5 3 2;
  rrep 4 1 7;
  Alcotest.(check (option int)) "stale seqno rejected" (Some 2)
    (Aodv.next_hop t ~dst:5);
  rrep 5 1 8;
  Alcotest.(check (option int)) "same seqno fewer hops accepted" (Some 8)
    (Aodv.next_hop t ~dst:5)

let test_aodv_rerr () =
  let h = harness () in
  let t, agent = Aodv.create_full h.ctx in
  agent.RI.receive ~src:2
    (Frame.make ~src:2 ~dst:(Frame.Unicast 0) ~size:40
       ~payload:
         (Aodv.Rrep
            {
              rp_src = 0;
              rp_dst = 5;
              rp_dst_seqno = 3;
              rp_hops = 1;
              rp_lifetime = 10.0;
            }));
  Alcotest.(check (option int)) "route up" (Some 2) (Aodv.next_hop t ~dst:5);
  agent.RI.receive ~src:2
    (Frame.make ~src:2 ~dst:Frame.Broadcast ~size:32
       ~payload:(Aodv.Rerr { re_unreachable = [ (5, 4) ] }));
  Alcotest.(check (option int)) "route invalidated" None
    (Aodv.next_hop t ~dst:5)

(* ------------------------------------------------------------------ *)
(* LDR *)

module Ldr = Protocols.Ldr

let test_ldr_feasibility () =
  let l sn fd = { Ldr.sn; fd } in
  Alcotest.(check bool) "fresher sn feasible" true
    (Ldr.feasible ~own:(Some (l 1 3)) ~adv:(l 2 9));
  Alcotest.(check bool) "same sn smaller fd feasible" true
    (Ldr.feasible ~own:(Some (l 1 3)) ~adv:(l 1 2));
  Alcotest.(check bool) "same sn equal fd infeasible" false
    (Ldr.feasible ~own:(Some (l 1 3)) ~adv:(l 1 3));
  Alcotest.(check bool) "older sn infeasible" false
    (Ldr.feasible ~own:(Some (l 2 3)) ~adv:(l 1 0));
  Alcotest.(check bool) "unassigned accepts anything" true
    (Ldr.feasible ~own:None ~adv:(l 0 100))

let test_ldr_destination_reset_only_on_flag () =
  let h = harness ~id:5 () in
  let t, agent = Ldr.create_full h.ctx in
  let rreq reset id =
    agent.RI.receive ~src:3
      (Frame.make ~src:3 ~dst:Frame.Broadcast ~size:48
         ~payload:
           (Ldr.Rreq
              {
                rq_src = 0;
                rq_id = id;
                rq_dst = 5;
                rq_label = None;
                rq_reset = reset;
                rq_hops = 1;
                rq_ttl = 5;
              }))
  in
  rreq false 1;
  Alcotest.(check int) "no reset" 0 (Ldr.own_seqno t);
  rreq true 2;
  Alcotest.(check int) "reset on demand" 1 (Ldr.own_seqno t)

let test_ldr_adoption_updates_fd () =
  let h = harness () in
  let t, agent = Ldr.create_full h.ctx in
  agent.RI.receive ~src:2
    (Frame.make ~src:2 ~dst:(Frame.Unicast 0) ~size:44
       ~payload:
         (Ldr.Rrep
            {
              rp_src = 0;
              rp_id = 1;
              rp_dst = 5;
              rp_label = { Ldr.sn = 1; fd = 2 };
              rp_dist = 2;
              rp_lifetime = 10.0;
            }));
  (match Ldr.label_for t ~dst:5 with
  | Some l ->
      Alcotest.(check int) "sn adopted" 1 l.Ldr.sn;
      Alcotest.(check int) "fd = dist + 1" 3 l.Ldr.fd
  | None -> Alcotest.fail "no label");
  Alcotest.(check (option int)) "next hop" (Some 2) (Ldr.next_hop t ~dst:5);
  (* an infeasible advertisement at the same sn does not regress fd *)
  agent.RI.receive ~src:7
    (Frame.make ~src:7 ~dst:(Frame.Unicast 0) ~size:44
       ~payload:
         (Ldr.Rrep
            {
              rp_src = 0;
              rp_id = 2;
              rp_dst = 5;
              rp_label = { Ldr.sn = 1; fd = 9 };
              rp_dist = 9;
              rp_lifetime = 10.0;
            }));
  Alcotest.(check (option int)) "kept better next hop" (Some 2)
    (Ldr.next_hop t ~dst:5)

(* ------------------------------------------------------------------ *)
(* DSR *)

module Dsr = Protocols.Dsr

let dsr_rrep frames =
  List.filter_map
    (fun f -> match f.Frame.payload with Dsr.Rrep r -> Some r | _ -> None)
    frames

let test_dsr_destination_reply_path () =
  let h = harness ~id:5 () in
  let _, agent = Dsr.create_full h.ctx in
  agent.RI.receive ~src:3
    (Frame.make ~src:3 ~dst:Frame.Broadcast ~size:36
       ~payload:
         (Dsr.Rreq
            { rq_src = 0; rq_id = 1; rq_dst = 5; rq_record = [ 0; 3 ]; rq_ttl = 5 }));
  run h;
  match dsr_rrep (take_sent h) with
  | [ rrep ] ->
      Alcotest.(check (list int)) "complete source route" [ 0; 3; 5 ]
        rrep.Dsr.rp_path;
      Alcotest.(check (list int)) "reverse hops" [ 3; 0 ] rrep.Dsr.rp_back
  | l -> Alcotest.failf "expected RREP, got %d" (List.length l)

let test_dsr_cache_and_send () =
  let h = harness () in
  let t, agent = Dsr.create_full h.ctx in
  (* learn a route via an incoming RREP *)
  agent.RI.receive ~src:3
    (Frame.make ~src:3 ~dst:(Frame.Unicast 0) ~size:40
       ~payload:(Dsr.Rrep { rp_path = [ 0; 3; 5 ]; rp_back = [ 0 ] }));
  Alcotest.(check (option (list int))) "cached" (Some [ 0; 3; 5 ])
    (Dsr.cached_path t ~dst:5);
  agent.RI.originate (mk_data ()) ~size:512;
  run h;
  let datas = List.filter Frame.is_data (take_sent h) in
  (match datas with
  | [ f ] -> (
      Alcotest.(check bool) "first hop 3" true (f.Frame.dst = Frame.Unicast 3);
      match f.Frame.payload with
      | Dsr.Dsr_data dd ->
          Alcotest.(check (list int)) "carries route" [ 0; 3; 5 ]
            dd.Dsr.dd_route
      | _ -> Alcotest.fail "not source-routed")
  | l -> Alcotest.failf "expected 1 data, got %d" (List.length l));
  (* a broken link purges every cached path that uses it *)
  let frame =
    Frame.make ~src:0 ~dst:(Frame.Unicast 3) ~size:560
      ~payload:
        (Dsr.Dsr_data
           { dd_data = mk_data (); dd_route = [ 0; 3; 5 ]; dd_idx = 0;
             dd_salvaged = 0 })
  in
  agent.RI.unicast_failed ~frame ~dst:3;
  Alcotest.(check (option (list int))) "cache purged" None
    (Dsr.cached_path t ~dst:5)

let test_dsr_forwarding () =
  let h = harness ~id:3 () in
  let _, agent = Dsr.create_full h.ctx in
  agent.RI.receive ~src:0
    (Frame.make ~src:0 ~dst:(Frame.Unicast 3) ~size:560
       ~payload:
         (Dsr.Dsr_data
            { dd_data = mk_data (); dd_route = [ 0; 3; 5 ]; dd_idx = 1;
              dd_salvaged = 0 }));
  run h;
  match List.filter Frame.is_data (take_sent h) with
  | [ f ] ->
      Alcotest.(check bool) "forwarded to 5" true (f.Frame.dst = Frame.Unicast 5)
  | l -> Alcotest.failf "expected forward, got %d" (List.length l)

(* A source-routed frame of a [payload]-byte packet along [route]: IP
   header, source-route header and 4 bytes per listed hop on top. *)
let dsr_frame ~src ~dst ~payload ~route ~idx =
  Frame.make ~src ~dst:(Frame.Unicast dst)
    ~size:(payload + 20 + 4 + (4 * List.length route))
    ~payload:
      (Dsr.Dsr_data
         { dd_data = mk_data (); dd_route = route; dd_idx = idx;
           dd_salvaged = 0 })

(* A relay passes a packet on at the size it was sent with, not at the
   default 512 bytes. *)
let test_dsr_relay_keeps_size () =
  let h = harness ~id:3 () in
  let _, agent = Dsr.create_full h.ctx in
  let frame = dsr_frame ~src:0 ~dst:3 ~payload:256 ~route:[ 0; 3; 5 ] ~idx:1 in
  agent.RI.receive ~src:0 frame;
  run h;
  match List.filter Frame.is_data (take_sent h) with
  | [ f ] ->
      Alcotest.(check int) "size received" frame.Frame.size f.Frame.size
  | l -> Alcotest.failf "expected forward, got %d" (List.length l)

(* A salvaged packet keeps its size too: re-routed over a longer cached
   path, only the source route grows. *)
let test_dsr_salvage_keeps_size () =
  let h = harness ~id:3 () in
  let _, agent = Dsr.create_full h.ctx in
  agent.RI.receive ~src:0
    (Frame.make ~src:0 ~dst:(Frame.Unicast 3) ~size:40
       ~payload:(Dsr.Rrep { rp_path = [ 0; 3; 4; 6; 5 ]; rp_back = [ 3; 0 ] }));
  ignore (take_sent h);
  agent.RI.unicast_failed
    ~frame:(dsr_frame ~src:3 ~dst:5 ~payload:256 ~route:[ 0; 3; 5 ] ~idx:2)
    ~dst:5;
  run h;
  match List.filter Frame.is_data (take_sent h) with
  | [ f ] ->
      Alcotest.(check bool) "salvaged via 4" true (f.Frame.dst = Frame.Unicast 4);
      Alcotest.(check int) "256 bytes on a 4-hop route" (256 + 20 + 4 + 16)
        f.Frame.size
  | l -> Alcotest.failf "expected a salvage, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* OLSR *)

module Olsr = Protocols.Olsr

let hello ~origin links =
  Frame.make ~src:origin ~dst:Frame.Broadcast ~size:20
    ~payload:(Olsr.Hello { h_origin = origin; h_links = links })

let test_olsr_symmetry_and_mpr () =
  let h = harness () in
  let t, agent = Olsr.create_full h.ctx in
  (* neighbour 1 hears us -> symmetric; it reaches 10 and 11 *)
  agent.RI.receive ~src:1
    (hello ~origin:1 [ (0, true, false); (10, true, false); (11, true, false) ]);
  (* neighbour 2 does not list us -> asymmetric *)
  agent.RI.receive ~src:2 (hello ~origin:2 [ (10, true, false) ]);
  Alcotest.(check (list int)) "only node 1 symmetric" [ 1 ]
    (List.sort compare (Olsr.sym_neighbors t));
  (* routes: 2-hop nodes via node 1 *)
  Alcotest.(check (option int)) "route to 10 via 1" (Some 1)
    (Olsr.next_hop t ~dst:10);
  Alcotest.(check (option int)) "no route to stranger" None
    (Olsr.next_hop t ~dst:12)

let test_olsr_topology_routing () =
  let h = harness () in
  let t, agent = Olsr.create_full h.ctx in
  agent.RI.receive ~src:1
    (hello ~origin:1 [ (0, true, false); (4, true, false) ]);
  (* a TC from node 4 (flooded via 1) says 4 reaches 9 *)
  agent.RI.receive ~src:1
    (Frame.make ~src:1 ~dst:Frame.Broadcast ~size:24
       ~payload:(Olsr.Tc { t_origin = 4; t_ansn = 1; t_advertised = [ 9 ] }));
  Alcotest.(check (option int)) "multi-hop route to 9 via 1" (Some 1)
    (Olsr.next_hop t ~dst:9)

let tc ~last_hop ~ansn advertised =
  Frame.make ~src:1 ~dst:Frame.Broadcast ~size:24
    ~payload:
      (Olsr.Tc { t_origin = last_hop; t_ansn = ansn; t_advertised = advertised })

let hello_1_4 = hello ~origin:1 [ (0, true, false); (4, true, false) ]

(* An advertised edge lasts [topology_hold]; the next TC that carries it
   again (a new ANSN) brings the route back after the expired entry has
   been purged. *)
let test_olsr_topology_expiry () =
  let h = harness () in
  let t, agent = Olsr.create_full h.ctx in
  agent.RI.receive ~src:1 hello_1_4;
  agent.RI.receive ~src:1 (tc ~last_hop:4 ~ansn:1 [ 9 ]);
  Alcotest.(check (option int)) "route to 9 via 1" (Some 1)
    (Olsr.next_hop t ~dst:9);
  Des.Engine.run h.engine ~until:(Olsr.topology_hold +. 0.5);
  agent.RI.receive ~src:1 hello_1_4;
  Alcotest.(check (option int)) "edge 4 -> 9 expired" None
    (Olsr.next_hop t ~dst:9);
  Alcotest.(check (option int)) "two-hop 4 still via 1" (Some 1)
    (Olsr.next_hop t ~dst:4);
  agent.RI.receive ~src:1 (tc ~last_hop:4 ~ansn:2 [ 9 ]);
  Alcotest.(check (option int)) "re-advertised: via 1 again" (Some 1)
    (Olsr.next_hop t ~dst:9)

(* TCs from one last hop add to what it advertised before. *)
let test_olsr_topology_merge () =
  let h = harness () in
  let t, agent = Olsr.create_full h.ctx in
  agent.RI.receive ~src:1 hello_1_4;
  agent.RI.receive ~src:1 (tc ~last_hop:4 ~ansn:1 [ 9 ]);
  agent.RI.receive ~src:1 (tc ~last_hop:4 ~ansn:2 [ 8 ]);
  Alcotest.(check (option int)) "route to 9 kept" (Some 1)
    (Olsr.next_hop t ~dst:9);
  Alcotest.(check (option int)) "route to 8 added" (Some 1)
    (Olsr.next_hop t ~dst:8)

let recomputes = Obs.counter "olsr.route.recomputes"
let scanned = Obs.counter "olsr.topology.scanned"

(* One recompute per control message that [next_hop] follows, however often
   it is asked; the BFS reads the one topology entry, held by node 4. *)
let test_olsr_work_counters () =
  let h = harness () in
  let t, agent = Olsr.create_full h.ctx in
  agent.RI.receive ~src:1 hello_1_4;
  agent.RI.receive ~src:1 (tc ~last_hop:4 ~ansn:1 [ 9 ]);
  ignore (Olsr.next_hop t ~dst:9);
  let counts () = (Obs.counter_value recomputes, Obs.counter_value scanned) in
  let r0, s0 = counts () in
  agent.RI.receive ~src:1 hello_1_4;
  ignore (Olsr.next_hop t ~dst:9);
  let r1, s1 = counts () in
  Alcotest.(check (pair int int)) "one recompute, one entry read" (1, 1)
    (r1 - r0, s1 - s0);
  ignore (Olsr.next_hop t ~dst:9);
  Alcotest.(check (pair int int)) "stale table served: nothing counted"
    (r1, s1) (counts ())

let test_olsr_tc_relay_gated_by_mpr () =
  let h = harness () in
  let _, agent = Olsr.create_full h.ctx in
  (* node 1 selected us as MPR *)
  agent.RI.receive ~src:1 (hello ~origin:1 [ (0, true, true) ]);
  ignore (take_sent h);
  agent.RI.receive ~src:1
    (Frame.make ~src:1 ~dst:Frame.Broadcast ~size:24
       ~payload:(Olsr.Tc { t_origin = 7; t_ansn = 3; t_advertised = [ 1 ] }));
  run h;
  let relayed =
    List.filter
      (fun f ->
        match f.Frame.payload with
        | Olsr.Tc tc -> tc.Olsr.t_origin = 7
        | _ -> false)
      (take_sent h)
  in
  Alcotest.(check int) "TC relayed (we are its MPR)" 1 (List.length relayed);
  (* same TC again: duplicate suppressed *)
  agent.RI.receive ~src:1
    (Frame.make ~src:1 ~dst:Frame.Broadcast ~size:24
       ~payload:(Olsr.Tc { t_origin = 7; t_ansn = 3; t_advertised = [ 1 ] }));
  run h;
  let again =
    List.filter
      (fun f ->
        match f.Frame.payload with
        | Olsr.Tc tc -> tc.Olsr.t_origin = 7
        | _ -> false)
      (take_sent h)
  in
  Alcotest.(check int) "duplicate not relayed" 0 (List.length again)

(* ------------------------------------------------------------------ *)
(* Extra protocol edge cases *)

let test_srp_dbit_probe_relays_forward () =
  let h = harness ~id:7 () in
  let _, agent = Srp.create_full h.ctx in
  adopt_route h agent ~dst:5 ~via:3 ~order:(O.destination ~sn:1) ~dist:0;
  ignore (take_sent h);
  (* a D-bit probe must travel the unicast forward path to the destination
     even though we could answer by SDC *)
  let rreq =
    {
      Srp.rq_src = 1;
      rq_id = 31;
      rq_dst = 5;
      rq_order = ord 1 9 10;
      rq_u = false;
      rq_rr = true;
      rq_d = true;
      rq_n = true;
      rq_hops = 3;
      rq_ttl = 8;
      rq_adv = None;
    }
  in
  agent.RI.receive ~src:2
    (Frame.make ~src:2 ~dst:(Frame.Unicast 7) ~size:52 ~payload:(Srp.Rreq rreq));
  run_short h;
  let sent = take_sent h in
  Alcotest.(check int) "no SDC reply to a probe" 0
    (List.length (find_rrep sent));
  match find_rreq sent with
  | [ (frame, relayed) ] ->
      Alcotest.(check bool) "unicast toward successor" true
        (frame.Frame.dst = Frame.Unicast 3);
      Alcotest.(check bool) "still a probe" true relayed.Srp.rq_d
  | l -> Alcotest.failf "expected probe relay, got %d" (List.length l)

let test_srp_relay_no_route_sends_rerr () =
  let h = harness ~id:7 () in
  let _, agent = Srp.create_full h.ctx in
  agent.RI.receive ~src:2
    (Frame.make ~src:2 ~dst:(Frame.Unicast 7) ~size:532
       ~payload:(Frame.Data (mk_data ~origin:1 ~dst:5 ())));
  let rerrs =
    List.filter
      (fun f -> match f.Frame.payload with Srp.Rerr _ -> true | _ -> false)
      (take_sent h)
  in
  (match rerrs with
  | [ f ] ->
      Alcotest.(check bool) "RERR unicast to the last hop" true
        (f.Frame.dst = Frame.Unicast 2)
  | l -> Alcotest.failf "expected 1 RERR, got %d" (List.length l));
  Alcotest.(check int) "data dropped" 1 (List.length !(h.dropped))

let test_aodv_expanding_ring () =
  let h = harness () in
  let _, agent = Aodv.create_full h.ctx in
  agent.RI.originate (mk_data ()) ~size:512;
  (* ttl-1 attempt times out after 2 * 1 * 0.04 s; the retry uses ttl 3 *)
  Des.Engine.run h.engine ~until:0.2;
  match aodv_rreq (take_sent h) with
  | [ first; second ] ->
      Alcotest.(check int) "first ring" 1 first.Aodv.rq_ttl;
      Alcotest.(check int) "second ring" 3 second.Aodv.rq_ttl
  | l -> Alcotest.failf "expected 2 RREQs, got %d" (List.length l)

let test_dsr_ignores_looping_rreq () =
  let h = harness ~id:3 () in
  let _, agent = Dsr.create_full h.ctx in
  agent.RI.receive ~src:2
    (Frame.make ~src:2 ~dst:Frame.Broadcast ~size:40
       ~payload:
         (Dsr.Rreq
            {
              rq_src = 0;
              rq_id = 4;
              rq_dst = 9;
              (* we already appear in the record: must not process again *)
              rq_record = [ 0; 3; 2 ];
              rq_ttl = 6;
            }));
  run h;
  Alcotest.(check int) "nothing sent" 0 (List.length (take_sent h))

let test_olsr_neighbor_expiry () =
  let h = harness () in
  let t, agent = Olsr.create_full h.ctx in
  agent.RI.receive ~src:1
    (hello ~origin:1 [ (0, true, false); (10, true, false) ]);
  Alcotest.(check (option int)) "route up" (Some 1) (Olsr.next_hop t ~dst:10);
  (* no more HELLOs: after the hold time the neighbour (and routes through
     it) disappear *)
  Des.Engine.run h.engine ~until:7.0;
  ignore (take_sent h);
  Alcotest.(check (list int)) "neighbour expired" []
    (Olsr.sym_neighbors t);
  (* force a recompute via a fresh (asymmetric) hello from someone else *)
  agent.RI.receive ~src:2 (hello ~origin:2 [ (9, true, false) ]);
  Alcotest.(check (option int)) "route gone" None (Olsr.next_hop t ~dst:10)

(* The stale-table contract: routes are recomputed only after a HELLO or a
   new TC, so between control messages the last table is served even once
   the neighbour it goes through has expired. *)
let test_olsr_stale_table () =
  let h = harness () in
  let t, agent = Olsr.create_full h.ctx in
  agent.RI.receive ~src:1
    (hello ~origin:1 [ (0, true, false); (10, true, false) ]);
  Alcotest.(check (option int)) "route up" (Some 1) (Olsr.next_hop t ~dst:10);
  Des.Engine.run h.engine ~until:7.0;
  Alcotest.(check (list int)) "neighbour expired" [] (Olsr.sym_neighbors t);
  Alcotest.(check (option int)) "stale route still served" (Some 1)
    (Olsr.next_hop t ~dst:10);
  Alcotest.(check int) "stale table size" 2
    (agent.RI.gauges ()).RI.route_entries;
  agent.RI.receive ~src:2 (hello ~origin:2 [ (9, true, false) ]);
  Alcotest.(check (option int)) "next HELLO drops it" None
    (Olsr.next_hop t ~dst:10);
  Alcotest.(check int) "table emptied" 0 (agent.RI.gauges ()).RI.route_entries

let test_olsr_next_hop_bounds () =
  let h = harness ~id:3 () in
  let t, agent = Olsr.create_full h.ctx in
  let none label dst =
    Alcotest.(check (option int)) label None (Olsr.next_hop t ~dst)
  in
  none "own id, no table yet" 3;
  none "node_count, no table yet" 16;
  agent.RI.receive ~src:1
    (hello ~origin:1 [ (3, true, false); (10, true, false) ]);
  Alcotest.(check (option int)) "route up" (Some 1) (Olsr.next_hop t ~dst:10);
  none "own id" 3;
  none "node_count" 16;
  none "far above node_count" 1000;
  none "negative id" (-1)

let test_ldr_request_strengthening () =
  let h = harness ~id:7 () in
  let _, agent = Ldr.create_full h.ctx in
  (* give node 7 a label for dst 5 via an adopted route, then expire it *)
  agent.RI.receive ~src:3
    (Frame.make ~src:3 ~dst:(Frame.Unicast 7) ~size:44
       ~payload:
         (Ldr.Rrep
            {
              rp_src = 7;
              rp_id = 1;
              rp_dst = 5;
              rp_label = { Ldr.sn = 2; fd = 1 };
              rp_dist = 1;
              rp_lifetime = 5.0;
            }));
  Des.Engine.run h.engine ~until:6.0;
  ignore (take_sent h);
  (* relay a request with an older label: ours must replace it *)
  agent.RI.receive ~src:2
    (Frame.make ~src:2 ~dst:Frame.Broadcast ~size:48
       ~payload:
         (Ldr.Rreq
            {
              rq_src = 1;
              rq_id = 9;
              rq_dst = 5;
              rq_label = Some { Ldr.sn = 1; fd = 3 };
              rq_reset = false;
              rq_hops = 1;
              rq_ttl = 4;
            }));
  run_short h;
  let relayed =
    List.filter_map
      (fun f -> match f.Frame.payload with Ldr.Rreq r -> Some r | _ -> None)
      (take_sent h)
  in
  match relayed with
  | [ r ] ->
      Alcotest.(check bool) "label strengthened to the fresher one" true
        (r.Ldr.rq_label = Some { Ldr.sn = 2; fd = 2 })
  | l -> Alcotest.failf "expected relay, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Shared infrastructure *)

(* ------------------------------------------------------------------ *)
(* The on-demand skeleton (Protocols.Ondemand), run against each agent *)

(* A relay (node 7) whose route to 5 goes via 3, learnt from a reply that
   ends at the relay itself. *)
let relay_with_route ~create ~rrep =
  let h = harness ~id:7 () in
  let agent = create h.ctx in
  agent.RI.receive ~src:3
    (Frame.make ~src:3 ~dst:(Frame.Unicast 7) ~size:44 ~payload:rrep);
  run_short h;
  ignore (take_sent h);
  (h, agent)

(* A packet that has come [hops] hops is forwarded while the count it
   leaves with is within the data TTL (64), and dropped as "ttl exceeded",
   with nothing sent, once it would pass it. *)
let check_data_ttl (h, agent) =
  let arrive hops =
    let data = mk_data ~origin:1 ~dst:5 () in
    data.Frame.hops <- hops;
    agent.RI.receive ~src:2
      (Frame.make ~src:2 ~dst:(Frame.Unicast 7) ~size:532
         ~payload:(Frame.Data data));
    take_sent h
  in
  (match arrive 63 with
  | [ f ] ->
      Alcotest.(check bool) "hop 64 forwarded to 3" true
        (Frame.is_data f && f.Frame.dst = Frame.Unicast 3)
  | l -> Alcotest.failf "expected 1 frame at hop 64, got %d" (List.length l));
  Alcotest.(check int) "nothing dropped at hop 64" 0
    (List.length !(h.dropped));
  Alcotest.(check int) "nothing sent at hop 65" 0 (List.length (arrive 64));
  Alcotest.(check (list string)) "dropped at hop 65" [ "ttl exceeded" ]
    (List.map snd !(h.dropped))

let test_aodv_data_ttl () =
  check_data_ttl
    (relay_with_route
       ~create:(fun ctx -> Aodv.create ctx)
       ~rrep:
         (Aodv.Rrep
            {
              rp_src = 7;
              rp_dst = 5;
              rp_dst_seqno = 1;
              rp_hops = 0;
              rp_lifetime = 10.0;
            }))

let test_ldr_data_ttl () =
  check_data_ttl
    (relay_with_route
       ~create:(fun ctx -> Ldr.create ctx)
       ~rrep:
         (Ldr.Rrep
            {
              rp_src = 7;
              rp_id = 1;
              rp_dst = 5;
              rp_label = { Ldr.sn = 1; fd = 0 };
              rp_dist = 0;
              rp_lifetime = 10.0;
            }))

let test_srp_data_ttl () =
  check_data_ttl
    (relay_with_route
       ~create:(fun ctx -> Srp.create ctx)
       ~rrep:
         (Srp.Rrep
            {
              rp_src = 7;
              rp_id = 1;
              rp_dst = 5;
              rp_order = O.destination ~sn:1;
              rp_dist = 0;
              rp_lifetime = 10.0;
              rp_n = false;
            }))

(* Requests from [src] for 5 and their replies from 5, as relay 7 gets
   them from 2 and from 3. *)
let aodv_rreq_to5 ~src ~id =
  Aodv.Rreq
    {
      rq_src = src;
      rq_src_seqno = 1;
      rq_id = id;
      rq_dst = 5;
      rq_dst_seqno = None;
      rq_hops = 1;
      rq_ttl = 5;
    }

let aodv_rrep_from5 ~src ~id:_ =
  Aodv.Rrep
    { rp_src = src; rp_dst = 5; rp_dst_seqno = 1; rp_hops = 0; rp_lifetime = 10.0 }

let ldr_rreq_to5 ~src ~id =
  Ldr.Rreq
    {
      rq_src = src;
      rq_id = id;
      rq_dst = 5;
      rq_label = None;
      rq_reset = false;
      rq_hops = 1;
      rq_ttl = 5;
    }

let ldr_rrep_from5 ~src ~id =
  Ldr.Rrep
    {
      rp_src = src;
      rp_id = id;
      rp_dst = 5;
      rp_label = { Ldr.sn = 1; fd = 0 };
      rp_dist = 0;
      rp_lifetime = 10.0;
    }

let srp_rreq_to5 ~src ~id =
  Srp.Rreq
    {
      rq_src = src;
      rq_id = id;
      rq_dst = 5;
      rq_order = O.unassigned;
      rq_u = true;
      rq_rr = false;
      rq_d = false;
      rq_n = true;
      rq_hops = 1;
      rq_ttl = 5;
      rq_adv = None;
    }

let srp_rrep_from5 ~src ~id =
  Srp.Rrep
    {
      rp_src = src;
      rp_id = id;
      rp_dst = 5;
      rp_order = O.destination ~sn:1;
      rp_dist = 0;
      rp_lifetime = 10.0;
      rp_n = false;
    }

let request agent ~src ~id rreq =
  agent.RI.receive ~src:2
    (Frame.make ~src:2 ~dst:Frame.Broadcast ~size:52 ~payload:(rreq ~src ~id))

let reply h agent ~src ~id rrep =
  agent.RI.receive ~src:3
    (Frame.make ~src:3 ~dst:(Frame.Unicast 7) ~size:44 ~payload:(rrep ~src ~id));
  run_short h

(* A relay engaged with more than 4,096 requests forgets those older than
   DELETE_PERIOD (60 s): a reply to the oldest then has no reverse path
   and the relay sends no RREP for it, while a reply to a recent one is
   still relayed toward its requester. *)
let check_engagement_sweep ~create ~rreq ~rrep ~is_rrep =
  let h = harness ~id:7 () in
  let agent = create h.ctx in
  let rreps ~src ~id =
    reply h agent ~src ~id rrep;
    List.length (List.filter is_rrep (take_sent h))
  in
  request agent ~src:0 ~id:1 rreq;
  Des.Engine.run h.engine ~until:61.0;
  for id = 1 to 4097 do
    request agent ~src:1 ~id rreq
  done;
  run_short h;
  ignore (take_sent h);
  Alcotest.(check int) "no RREP for the request 61 s old" 0
    (rreps ~src:0 ~id:1);
  Alcotest.(check int) "a recent request's RREP relayed" 1
    (rreps ~src:1 ~id:4097)

let test_ldr_engagement_sweep () =
  check_engagement_sweep
    ~create:(fun ctx -> Ldr.create ctx)
    ~rreq:ldr_rreq_to5 ~rrep:ldr_rrep_from5
    ~is_rrep:(fun f ->
      match f.Frame.payload with Ldr.Rrep _ -> true | _ -> false)

let test_srp_engagement_sweep () =
  check_engagement_sweep
    ~create:(fun ctx -> Srp.create ctx)
    ~rreq:srp_rreq_to5 ~rrep:srp_rrep_from5
    ~is_rrep:(fun f ->
      match f.Frame.payload with Srp.Rrep _ -> true | _ -> false)

(* Relay 7 relays a request from 0 for 5 and then 5's reply, which makes
   2, the requester's side, a precursor of its route to 5 via 3. When the
   link to 3 breaks, the relay broadcasts one route error for 5, and does
   so only once the route via 3 is gone. [via_3 t] reads that route;
   [rerr_5 f] recognises the route error. *)
let check_break_reports ~create_full ~via_3 ~rreq ~rrep ~rerr_5 =
  let h = harness ~id:7 () in
  let state = ref None in
  let gone_at_rerr = ref [] in
  let send f =
    if rerr_5 f then
      gone_at_rerr := (not (via_3 (Option.get !state))) :: !gone_at_rerr;
    h.ctx.RI.mac_send f
  in
  let t, agent = create_full { h.ctx with RI.mac_send = send } in
  state := Some t;
  request agent ~src:0 ~id:1 rreq;
  run_short h;
  reply h agent ~src:0 ~id:1 rrep;
  Alcotest.(check bool) "route to 5 via 3" true (via_3 t);
  agent.RI.unicast_failed
    ~frame:
      (Frame.make ~src:7 ~dst:(Frame.Unicast 3) ~size:44
         ~payload:(rrep ~src:0 ~id:1))
    ~dst:3;
  Alcotest.(check (list bool)) "one RERR for 5, after the route is gone"
    [ true ] !gone_at_rerr

let test_aodv_break_reports () =
  check_break_reports
    ~create_full:(fun ctx -> Aodv.create_full ctx)
    ~via_3:(fun t -> Aodv.next_hop t ~dst:5 = Some 3)
    ~rreq:aodv_rreq_to5 ~rrep:aodv_rrep_from5
    ~rerr_5:(fun f ->
      match f.Frame.payload with
      | Aodv.Rerr { re_unreachable = [ (5, _) ] } -> true
      | _ -> false)

let test_ldr_break_reports () =
  check_break_reports
    ~create_full:(fun ctx -> Ldr.create_full ctx)
    ~via_3:(fun t -> Ldr.next_hop t ~dst:5 = Some 3)
    ~rreq:ldr_rreq_to5 ~rrep:ldr_rrep_from5
    ~rerr_5:(fun f ->
      match f.Frame.payload with
      | Ldr.Rerr { re_unreachable = [ 5 ] } -> true
      | _ -> false)

let test_srp_break_reports () =
  check_break_reports
    ~create_full:(fun ctx -> Srp.create_full ctx)
    ~via_3:(fun t -> List.mem_assoc 3 (Srp.successor_orderings t ~dst:5))
    ~rreq:srp_rreq_to5 ~rrep:srp_rrep_from5
    ~rerr_5:(fun f ->
      match f.Frame.payload with
      | Srp.Rerr { re_unreachable = [ 5 ] } -> true
      | _ -> false)

let test_seen_cache () =
  let e = Des.Engine.create () in
  let c = Protocols.Seen_cache.create e ~ttl:5.0 in
  Alcotest.(check bool) "first" true (Protocols.Seen_cache.witness c ~origin:1 ~id:1);
  Alcotest.(check bool) "duplicate" false
    (Protocols.Seen_cache.witness c ~origin:1 ~id:1);
  Alcotest.(check bool) "other id" true
    (Protocols.Seen_cache.witness c ~origin:1 ~id:2);
  ignore
    (Des.Engine.schedule e ~delay:6.0 (fun () ->
         Alcotest.(check bool) "expired entries forgotten" true
           (Protocols.Seen_cache.witness c ~origin:1 ~id:1)));
  Des.Engine.run_all e

(* A request module on [engine] whose callbacks log, in order, every
   request sent, give-up, forward and drop; [refuse seq] makes [forward]
   turn a packet down. [events ()] returns the log since the last call. *)
let discovery_log ?(ttls = [ 1 ]) ?(capacity = 8) ?(hold = 30.0)
    ?(refuse = fun _ -> false) engine =
  let log = ref [] in
  let note fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  let d =
    Protocols.Discovery.create engine ~ttls ~capacity ~hold
      ~send:(fun ~dst ~ttl ~attempt -> note "send %d ttl %d #%d" dst ttl attempt)
      ~give_up:(fun ~dst -> note "give-up %d" dst)
      ~forward:(fun data ~size:_ ->
        note "forward %d" data.Frame.seq;
        not (refuse data.Frame.seq))
      ~drop:(fun data ~reason -> note "drop %d: %s" data.Frame.seq reason)
  in
  let events () =
    let l = List.rev !log in
    log := [];
    l
  in
  (d, events)

let park d seq = Protocols.Discovery.park d ~dst:5 (mk_data ~seq ()) ~size:512

let test_pending_buffer () =
  (* the engine never runs, so nothing expires and no retry fires *)
  let d, events = discovery_log ~capacity:2 (Des.Engine.create ()) in
  List.iter (park d) [ 1; 2; 3 ];
  Alcotest.(check (list string)) "one request, oldest dropped at capacity"
    [ "send 5 ttl 1 #0"; "drop 1: pending-buffer overflow" ]
    (events ());
  Alcotest.(check int) "two held" 2 (Protocols.Discovery.parked d);
  Protocols.Discovery.succeed d ~dst:5;
  Alcotest.(check (list string)) "arrival order" [ "forward 2"; "forward 3" ]
    (events ());
  Alcotest.(check int) "empty after succeed" 0 (Protocols.Discovery.parked d)

let test_pending_expiry () =
  let e = Des.Engine.create () in
  (* a ring long enough that the request outlives both packets *)
  let d, events = discovery_log ~ttls:[ 1000 ] ~hold:2.0 e in
  park d 1;
  ignore (Des.Engine.schedule e ~delay:1.0 (fun () -> park d 2));
  (* the sweep timer drains the first packet at its 2 s deadline even
     though nobody touches the buffer again *)
  Des.Engine.run e ~until:2.5;
  Alcotest.(check (list string)) "first expired on time"
    [ "send 5 ttl 1000 #0"; "drop 1: pending-buffer expired" ]
    (events ());
  Alcotest.(check int) "second still held" 1 (Protocols.Discovery.parked d);
  Des.Engine.run e ~until:3.5;
  Alcotest.(check (list string)) "second expired"
    [ "drop 2: pending-buffer expired" ]
    (events ());
  Alcotest.(check int) "empty" 0 (Protocols.Discovery.parked d)

let test_discovery_backoff () =
  let e = Des.Engine.create () in
  let d, events = discovery_log ~ttls:[ 1; 3 ] e in
  park d 1;
  Alcotest.(check bool) "active" true (Protocols.Discovery.active d ~dst:5);
  (* a second park while active sends nothing *)
  park d 2;
  (* ttl 1 times out at 0.08 s; ttl 3 at +0.48 s; then one extra
     network-wide retry (RREQ_RETRIES = 1) at +0.96 s -> give-up 1.52 s *)
  Des.Engine.run e ~until:2.0;
  Alcotest.(check (list string)) "ring schedule, then give-up"
    [
      "send 5 ttl 1 #0";
      "send 5 ttl 3 #1";
      "send 5 ttl 3 #2";
      "give-up 5";
      "drop 1: route discovery failed";
      "drop 2: route discovery failed";
    ]
    (events ());
  Alcotest.(check bool) "inactive" false (Protocols.Discovery.active d ~dst:5);
  (* hold-off: a park right after the failure sends nothing *)
  park d 3;
  Des.Engine.run e ~until:2.4;
  Alcotest.(check (list string)) "suppressed during holdoff" [] (events ());
  (* the first-failure holdoff is one second; afterwards it runs again *)
  Des.Engine.run e ~until:2.6;
  park d 4;
  Alcotest.(check (list string)) "restarted after holdoff"
    [ "send 5 ttl 1 #0" ] (events ())

(* What the agents used to wire by hand around a request. *)
let test_discovery_contract () =
  let e = Des.Engine.create () in
  let d, events =
    discovery_log ~hold:5.0 ~refuse:(fun seq -> seq mod 2 = 0) e
  in
  (* a relay's flush hands the parked packets on, dropping refusals, and
     leaves the request running *)
  List.iter (park d) [ 1; 2; 3 ];
  Protocols.Discovery.flush d ~dst:5;
  Alcotest.(check (list string)) "flush"
    [
      "send 5 ttl 1 #0";
      "forward 1";
      "forward 2";
      "drop 2: no route after reply";
      "forward 3";
    ]
    (events ());
  Alcotest.(check bool) "still requesting" true
    (Protocols.Discovery.active d ~dst:5);
  (* a reply stops the request, then forwards in arrival order *)
  List.iter (park d) [ 4; 5 ];
  Protocols.Discovery.succeed d ~dst:5;
  Alcotest.(check (list string)) "succeed"
    [ "forward 4"; "drop 4: no route after reply"; "forward 5" ]
    (events ());
  Alcotest.(check bool) "stopped" false (Protocols.Discovery.active d ~dst:5);
  (* give-up (0.08 s + 0.16 s) runs the agent's hook before the drops *)
  List.iter (park d) [ 6; 7 ];
  Des.Engine.run e ~until:0.5;
  Alcotest.(check (list string)) "give-up"
    [
      "send 5 ttl 1 #0";
      "send 5 ttl 1 #1";
      "give-up 5";
      "drop 6: route discovery failed";
      "drop 7: route discovery failed";
    ]
    (events ());
  (* parked during the one-second hold-off: no request, and it expires *)
  park d 8;
  Des.Engine.run e ~until:6.0;
  Alcotest.(check (list string)) "held off, then expired"
    [ "drop 8: pending-buffer expired" ]
    (events ())

let () =
  Alcotest.run "protocols"
    [
      ( "srp",
        [
          Alcotest.test_case "originate unassigned (Proc. 1)" `Quick
            test_srp_originate_unassigned;
          Alcotest.test_case "destination reply + T bit" `Quick
            test_srp_destination_reply;
          Alcotest.test_case "route adoption (Proc. 3)" `Quick
            test_srp_adopts_route_and_flushes;
          Alcotest.test_case "ordering lie heuristic" `Quick test_srp_lie_heuristic;
          Alcotest.test_case "relay strengthening (Eq. 10)" `Quick
            test_srp_relay_strengthens;
          Alcotest.test_case "SDC intermediate reply" `Quick
            test_srp_sdc_intermediate_reply;
          Alcotest.test_case "Eq. 11 overflow sets T" `Quick
            test_srp_relay_rr_on_overflow;
          Alcotest.test_case "successor elimination" `Quick
            test_srp_successor_elimination;
          Alcotest.test_case "RERR removes successor" `Quick
            test_srp_rerr_removes_successor;
          Alcotest.test_case "link failure recovery" `Quick
            test_srp_link_failure_recovery;
          Fixture.catalogue_case "SRP survives arbitrary control traffic"
            "srp-control-fuzz";
        ] );
      ( "aodv",
        [
          Alcotest.test_case "origination increments seqno" `Quick
            test_aodv_origination_increments_seqno;
          Alcotest.test_case "destination reply" `Quick test_aodv_destination_reply;
          Alcotest.test_case "RREP builds forward route" `Quick
            test_aodv_rrep_builds_forward_route;
          Alcotest.test_case "stale RREP ignored" `Quick test_aodv_stale_rrep_ignored;
          Alcotest.test_case "RERR invalidates" `Quick test_aodv_rerr;
        ] );
      ( "ldr",
        [
          Alcotest.test_case "feasibility rule" `Quick test_ldr_feasibility;
          Alcotest.test_case "destination reset gating" `Quick
            test_ldr_destination_reset_only_on_flag;
          Alcotest.test_case "FD update on adoption" `Quick
            test_ldr_adoption_updates_fd;
        ] );
      ( "dsr",
        [
          Alcotest.test_case "destination reply path" `Quick
            test_dsr_destination_reply_path;
          Alcotest.test_case "cache and source-routed send" `Quick
            test_dsr_cache_and_send;
          Alcotest.test_case "forwarding" `Quick test_dsr_forwarding;
          Alcotest.test_case "relay keeps the packet size" `Quick
            test_dsr_relay_keeps_size;
          Alcotest.test_case "salvage keeps the packet size" `Quick
            test_dsr_salvage_keeps_size;
        ] );
      ( "olsr",
        [
          Alcotest.test_case "symmetry and neighbours" `Quick
            test_olsr_symmetry_and_mpr;
          Alcotest.test_case "topology routing" `Quick test_olsr_topology_routing;
          Alcotest.test_case "topology expiry and re-advertisement" `Quick
            test_olsr_topology_expiry;
          Alcotest.test_case "topology merge, not replace" `Quick
            test_olsr_topology_merge;
          Alcotest.test_case "route work counters" `Quick
            test_olsr_work_counters;
          Alcotest.test_case "MPR-gated TC relay" `Quick
            test_olsr_tc_relay_gated_by_mpr;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "SRP D-bit probe relays forward" `Quick
            test_srp_dbit_probe_relays_forward;
          Alcotest.test_case "SRP relay without route sends RERR" `Quick
            test_srp_relay_no_route_sends_rerr;
          Alcotest.test_case "AODV expanding ring" `Quick test_aodv_expanding_ring;
          Alcotest.test_case "DSR ignores looping RREQ" `Quick
            test_dsr_ignores_looping_rreq;
          Alcotest.test_case "OLSR neighbour expiry" `Quick
            test_olsr_neighbor_expiry;
          Alcotest.test_case "OLSR stale table until next control message"
            `Quick test_olsr_stale_table;
          Alcotest.test_case "OLSR next_hop for own and out-of-range ids"
            `Quick test_olsr_next_hop_bounds;
          Alcotest.test_case "LDR request strengthening" `Quick
            test_ldr_request_strengthening;
        ] );
      ( "ondemand",
        [
          Alcotest.test_case "AODV data TTL" `Quick test_aodv_data_ttl;
          Alcotest.test_case "LDR data TTL" `Quick test_ldr_data_ttl;
          Alcotest.test_case "SRP data TTL" `Quick test_srp_data_ttl;
          Alcotest.test_case "LDR engagement sweep" `Quick
            test_ldr_engagement_sweep;
          Alcotest.test_case "SRP engagement sweep" `Quick
            test_srp_engagement_sweep;
          Alcotest.test_case "AODV link break reports" `Quick
            test_aodv_break_reports;
          Alcotest.test_case "LDR link break reports" `Quick
            test_ldr_break_reports;
          Alcotest.test_case "SRP link break reports" `Quick
            test_srp_break_reports;
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "seen cache" `Quick test_seen_cache;
          Alcotest.test_case "pending buffer" `Quick test_pending_buffer;
          Alcotest.test_case "pending expiry" `Quick test_pending_expiry;
          Alcotest.test_case "discovery ring + backoff" `Quick
            test_discovery_backoff;
          Alcotest.test_case "discovery contract" `Quick
            test_discovery_contract;
        ] );
    ]
