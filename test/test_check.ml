(* The property-testing engine itself: generator determinism, integrated
   shrinking to minimal counterexamples, byte-for-byte replay of failure
   reports, and the van Glabbeek AODV sequence-number scenario against the
   loop monitor. The catalogue itself runs through the CLI in
   test/cram/fuzz.t. *)

module Gen = Check.Gen
module Runner = Check.Runner
module Frame = Wireless.Frame

(* ------------------------------------------------------------------ *)
(* Generator engine *)

let test_gen_deterministic () =
  let gen =
    Gen.list_size (Gen.int_range 0 12)
      (Gen.pair (Gen.int_range 0 1000) Gen.bool)
  in
  let draw () =
    Gen.Tree.root (Gen.generate gen (Des.Rng.create 77L))
  in
  Alcotest.(check bool) "same seed, same value" true (draw () = draw ());
  let other = Gen.Tree.root (Gen.generate gen (Des.Rng.create 78L)) in
  (* not a law, but with these ranges a collision means a broken split *)
  Alcotest.(check bool) "different seed, different value" true
    (draw () <> other)

let test_shrink_trees_lazy_and_sound () =
  (* every shrink candidate of int_range stays inside the range *)
  let tree = Gen.generate (Gen.int_range 10 1000) (Des.Rng.create 5L) in
  let root = Gen.Tree.root tree in
  Alcotest.(check bool) "root in range" true (root >= 10 && root <= 1000);
  Seq.iter
    (fun child ->
      let v = Gen.Tree.root child in
      Alcotest.(check bool) "child in range" true (v >= 10 && v <= 1000))
    (Gen.Tree.children tree)

(* Threshold predicates must shrink to the exact boundary: the canonical
   integrated-shrinking acceptance test. *)
let test_shrink_int_minimal () =
  let cell =
    Runner.cell ~name:"int-threshold" ~print:string_of_int
      (Gen.int_range 0 100_000)
      (fun x -> if x >= 42 then Error "too big" else Ok ())
  in
  match Runner.run_cell ~seed:11 ~cases:200 cell with
  | Runner.Pass _ -> Alcotest.fail "threshold law should fail"
  | Runner.Fail f ->
      Alcotest.(check string) "shrunk to the boundary" "42" f.Runner.repr

let test_shrink_list_minimal () =
  let print l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]" in
  let cell =
    Runner.cell ~name:"list-threshold" ~print
      (Gen.list_size (Gen.int_range 0 20) (Gen.int_range 0 1000))
      (fun l ->
        if List.exists (fun x -> x >= 42) l then Error "has a big one"
        else Ok ())
  in
  match Runner.run_cell ~seed:3 ~cases:500 cell with
  | Runner.Pass _ -> Alcotest.fail "list law should fail"
  | Runner.Fail f ->
      Alcotest.(check string) "one element at the boundary" "[42]"
        f.Runner.repr

(* ------------------------------------------------------------------ *)
(* Replay: a failure report must reproduce byte for byte from only the
   (prop, seed, case) triple it prints — exactly what
   `manet_sim fuzz --prop .. --seed .. --replay ..` executes. *)

let test_replay_byte_identical () =
  let cell =
    Runner.cell ~name:"meta-replay" ~print:string_of_int
      (Gen.int_range 0 10_000)
      (fun x -> if x mod 997 = 3 then Error "unlucky residue" else Ok ())
  in
  match Runner.run_cell ~seed:123 ~cases:2000 cell with
  | Runner.Pass _ -> Alcotest.fail "expected a failure to replay"
  | Runner.Fail f ->
      let original = Runner.report (Runner.Fail f) ~name:"meta-replay" in
      Alcotest.(check bool) "report names the replay invocation" true
        (let line =
           Runner.replay_line ~prop:"meta-replay" ~seed:123 ~case:f.Runner.case
         in
         let rec contains i =
           i + String.length line <= String.length original
           && (String.sub original i (String.length line) = line
              || contains (i + 1))
         in
         contains 0);
      (* replay runs exactly one case at the printed index *)
      let replayed =
        Runner.run_cell ~seed:123 ~cases:1 ~start:f.Runner.case cell
      in
      Alcotest.(check string) "byte-for-byte reproduction" original
        (Runner.report replayed ~name:"meta-replay")

(* ------------------------------------------------------------------ *)
(* The van Glabbeek AODV scenario (CONCUR/ESOP analyses of RFC 3561):
   nodes s=0, a=1, d=2; a routes to d through s; the s-d link breaks.
   In the published interleaving, a's stale entry answers s's repair
   request and the two nodes point at each other. Our variant requests a
   strictly fresher sequence number for an invalidated route
   (Aodv.requested_seqno) and bumps the destination sequence number on
   link-layer loss, so the stale intermediate reply is refused and no
   loop forms — the first test pins exactly that guard. The acceptance
   weakness is still present ("accept anything when the current entry is
   invalid"): the second test forges the stale reply directly, watches
   the s<->a cycle appear, and requires the mutation-time monitor to
   flag it. The third runs SRP over the same schedule and keeps the
   reference model green. *)

let s, a, d = (0, 1, 2)

let mk_data ~origin ~dst ~seq ~at =
  {
    Frame.origin;
    final_dst = dst;
    flow = 0;
    seq;
    sent_at = at;
    hops = 0;
  }

(* the monitor: the next-hop graph toward [dst] must stay acyclic *)
let aodv_cycle aodvs ~dst =
  Result.is_error
    (Slr.Dag.acyclic
       ~successors:(fun i ->
         if i = dst then []
         else
           match Protocols.Aodv.next_hop aodvs.(i) ~dst with
           | Some nh -> [ nh ]
           | None -> [])
       (Array.length aodvs))

type aodv_world = {
  engine : Des.Engine.t;
  wire : Check.Wire.t;
  aodvs : Protocols.Aodv.t array;
  agents : Protocols.Routing_intf.agent array;
  mutable flagged : bool;  (** monitor saw a next-hop cycle *)
}

let aodv_world () =
  let engine = Des.Engine.create () in
  let wire =
    Check.Wire.create ~engine ~rng:(Des.Rng.create 99L) ~nodes:3 ()
  in
  let pairs =
    Array.init 3 (fun i ->
        Protocols.Aodv.create_full (Check.Wire.ctx wire i))
  in
  let aodvs = Array.map fst pairs and agents = Array.map snd pairs in
  Array.iteri (fun i agent -> Check.Wire.set_agent wire i agent) agents;
  let w = { engine; wire; aodvs; agents; flagged = false } in
  Array.iter
    (fun t ->
      Protocols.Aodv.on_route_change t (fun dst ->
          if aodv_cycle aodvs ~dst then w.flagged <- true))
    aodvs;
  Check.Wire.add_link wire s a;
  Check.Wire.add_link wire s d;
  w

(* phase A: a discovers d through s; phase B: the s-d link breaks and s
   loses its route through link-layer feedback, then starts local repair *)
let vg_schedule w =
  ignore
    (Des.Engine.schedule_at w.engine ~time:0.1 (fun () ->
         w.agents.(a).Protocols.Routing_intf.originate
           (mk_data ~origin:a ~dst:d ~seq:0 ~at:0.1)
           ~size:512));
  Des.Engine.run w.engine ~until:5.0;
  Alcotest.(check (option int)) "a routes to d through s" (Some s)
    (Protocols.Aodv.next_hop w.aodvs.(a) ~dst:d);
  Alcotest.(check (option int)) "s routes to d directly" (Some d)
    (Protocols.Aodv.next_hop w.aodvs.(s) ~dst:d);
  Check.Wire.remove_link w.wire s d;
  ignore
    (Des.Engine.schedule_at w.engine ~time:5.1 (fun () ->
         w.agents.(s).Protocols.Routing_intf.originate
           (mk_data ~origin:s ~dst:d ~seq:1 ~at:5.1)
           ~size:512));
  Des.Engine.run w.engine ~until:6.0;
  (* the unicast failed: s invalidated the route and bumped its seqno *)
  Alcotest.(check (option int)) "s lost its route" None
    (Protocols.Aodv.next_hop w.aodvs.(s) ~dst:d)

let test_vg_aodv_variant_avoids_loop () =
  let w = aodv_world () in
  vg_schedule w;
  (* while a's stale entry is still alive (route_lifetime 10 s), the
     repair rings must keep failing: a refuses to answer because s
     requests a strictly fresher seqno *)
  Des.Engine.run w.engine ~until:8.0;
  Alcotest.(check (option int)) "a still holds the stale route" (Some s)
    (Protocols.Aodv.next_hop w.aodvs.(a) ~dst:d);
  Alcotest.(check (option int)) "s did not adopt a route through a" None
    (Protocols.Aodv.next_hop w.aodvs.(s) ~dst:d);
  (* and to exhaustion: no interleaving of the remaining retries forms a
     loop either *)
  Des.Engine.run w.engine ~until:120.0;
  Alcotest.(check (option int)) "s never adopted a route through a" None
    (Protocols.Aodv.next_hop w.aodvs.(s) ~dst:d);
  Alcotest.(check bool) "monitor stayed quiet" false w.flagged;
  Alcotest.(check bool) "no next-hop cycle" false (aodv_cycle w.aodvs ~dst:d)

let test_vg_aodv_forged_reply_loops () =
  let w = aodv_world () in
  vg_schedule w;
  (* adversarial replay of the published interleaving: the stale reply a
     would have sent under RFC 3561 semantics, injected verbatim. s's
     entry for d is invalid, so the acceptance rule takes anything. *)
  let stale =
    Frame.with_kind
      (Frame.make ~src:a ~dst:(Frame.Unicast s)
         ~size:Protocols.Aodv.rrep_size
         ~payload:
           (Protocols.Aodv.Rrep
              {
                Protocols.Aodv.rp_src = s;
                rp_dst = d;
                rp_dst_seqno = 1;
                rp_hops = 1;
                rp_lifetime = 10.0;
              }))
      "rrep"
  in
  Check.Wire.inject w.wire ~from:a ~at:s stale;
  Alcotest.(check (option int)) "s now routes d through a" (Some a)
    (Protocols.Aodv.next_hop w.aodvs.(s) ~dst:d);
  Alcotest.(check (option int)) "a still routes d through s" (Some s)
    (Protocols.Aodv.next_hop w.aodvs.(a) ~dst:d);
  Alcotest.(check bool) "the monitor flagged the s<->a loop" true w.flagged;
  Alcotest.(check bool) "next-hop cycle present" true
    (aodv_cycle w.aodvs ~dst:d)

let test_vg_srp_same_schedule_loop_free () =
  let engine = Des.Engine.create () in
  let wire =
    Check.Wire.create ~engine ~rng:(Des.Rng.create 99L) ~nodes:3 ()
  in
  let model = Check.Slr_model.create ~nodes:3 in
  let violation = ref None in
  let pairs =
    Array.init 3 (fun i ->
        let t, agent = Protocols.Srp.create_full (Check.Wire.ctx wire i) in
        Protocols.Srp.on_route_change t (fun dst ->
            match
              Check.Slr_model.observe model
                {
                  Check.Slr_model.node = i;
                  dst;
                  order = Protocols.Srp.ordering t ~dst;
                  succs = Protocols.Srp.successor_orderings t ~dst;
                }
            with
            | Ok () -> ()
            | Error m -> if !violation = None then violation := Some m);
        Check.Wire.set_agent wire i agent;
        (t, agent))
  in
  let agents = Array.map snd pairs in
  Check.Wire.add_link wire s a;
  Check.Wire.add_link wire s d;
  ignore
    (Des.Engine.schedule_at engine ~time:0.1 (fun () ->
         agents.(a).Protocols.Routing_intf.originate
           (mk_data ~origin:a ~dst:d ~seq:0 ~at:0.1)
           ~size:512));
  Des.Engine.run engine ~until:5.0;
  Check.Wire.remove_link wire s d;
  ignore
    (Des.Engine.schedule_at engine ~time:5.1 (fun () ->
         agents.(s).Protocols.Routing_intf.originate
           (mk_data ~origin:s ~dst:d ~seq:1 ~at:5.1)
           ~size:512));
  Des.Engine.run engine ~until:40.0;
  (match !violation with
  | Some m -> Alcotest.fail ("reference model violation: " ^ m)
  | None -> ());
  Alcotest.(check bool) "model observed real route activity" true
    (Check.Slr_model.observations model > 0)

let () =
  Alcotest.run "check"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic from seed" `Quick
            test_gen_deterministic;
          Alcotest.test_case "shrink candidates stay in range" `Quick
            test_shrink_trees_lazy_and_sound;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "int threshold shrinks to 42" `Quick
            test_shrink_int_minimal;
          Alcotest.test_case "list shrinks to [42]" `Quick
            test_shrink_list_minimal;
        ] );
      ( "replay",
        [
          Alcotest.test_case "failure report replays byte-for-byte" `Quick
            test_replay_byte_identical;
        ] );
      ( "van-glabbeek",
        [
          Alcotest.test_case "our AODV variant refuses the stale reply"
            `Quick test_vg_aodv_variant_avoids_loop;
          Alcotest.test_case "forged stale reply forms a flagged loop"
            `Quick test_vg_aodv_forged_reply_loops;
          Alcotest.test_case "SRP on the same schedule stays loop-free"
            `Quick test_vg_srp_same_schedule_loop_free;
        ] );
    ]
