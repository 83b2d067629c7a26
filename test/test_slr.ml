(* Tests for the SLR core: fractions, big naturals, orderings, Algorithm 1,
   Farey interpolation, the paper's worked examples on the abstract
   executor, and the loop-freedom verdict. *)

module F = Slr.Fraction
module O = Slr.Ordering

let frac num den = F.make ~num ~den

let check_frac = Alcotest.testable F.pp F.equal

let check_ordering = Alcotest.testable O.pp O.equal

(* ------------------------------------------------------------------ *)
(* Fraction *)

let test_fraction_make_validates () =
  Alcotest.check_raises "zero denominator" (Invalid_argument
    "Fraction.make: denominator must be >= 1") (fun () ->
      ignore (F.make ~num:0 ~den:0));
  Alcotest.check_raises "improper" (Invalid_argument
    "Fraction.make: fraction must be <= 1/1") (fun () ->
      ignore (F.make ~num:3 ~den:2));
  Alcotest.check_raises "non-canonical unit" (Invalid_argument
    "Fraction.make: only 1/1 may have num = den") (fun () ->
      ignore (F.make ~num:4 ~den:4));
  Alcotest.check_raises "over bound" (Invalid_argument
    "Fraction.make: component exceeds 32-bit bound") (fun () ->
      ignore (F.make ~num:1 ~den:(F.bound + 1)))

let test_fraction_order () =
  Alcotest.(check bool) "1/2 < 2/3" true F.(frac 1 2 < frac 2 3);
  Alcotest.(check bool) "2/4 = 1/2" true (F.equal (frac 2 4) (frac 1 2));
  Alcotest.(check bool) "0/1 least" true F.(F.zero < frac 1 1000000);
  Alcotest.(check bool) "1/1 greatest" true F.(frac 999999 1000000 < F.one);
  (* near-bound comparison exercises the 64-bit unsigned path *)
  let big1 = frac (F.bound - 1) F.bound in
  let big2 = frac (F.bound - 2) (F.bound - 1) in
  Alcotest.(check bool) "near-bound order" true F.(big2 < big1)

let test_fraction_mediant () =
  Alcotest.(check (option check_frac)) "mediant 1/2 2/3"
    (Some (frac 3 5))
    (F.mediant (frac 1 2) (frac 2 3));
  Alcotest.(check (option check_frac)) "next 0/1" (Some (frac 1 2))
    (F.next F.zero);
  Alcotest.(check (option check_frac)) "next of greatest" None (F.next F.one);
  let big = frac 1 F.bound in
  Alcotest.(check (option check_frac)) "mediant overflow" None
    (F.mediant big (frac 1 2));
  Alcotest.(check bool) "would_overflow" true (F.would_overflow big (frac 1 2))

let test_fibonacci_bound () =
  (* §III: "the least upper bound ... is found from the Fibonacci sequence
     to be 45 times" *)
  Alcotest.(check int) "45 worst-case splits" 45 (F.max_splits ())

(* ------------------------------------------------------------------ *)
(* Bignat / Bigfrac *)

let test_bignat_basics () =
  let n = Slr.Bignat.of_int 123456789 in
  Alcotest.(check string) "to_string" "123456789" (Slr.Bignat.to_string n);
  Alcotest.(check (option int)) "to_int roundtrip" (Some 123456789)
    (Slr.Bignat.to_int n);
  let a = Slr.Bignat.of_string "99999999999999999999999999" in
  let b = Slr.Bignat.of_string "1" in
  Alcotest.(check string) "big add" "100000000000000000000000000"
    (Slr.Bignat.to_string (Slr.Bignat.add a b));
  let sq = Slr.Bignat.mul a a in
  Alcotest.(check string) "big mul"
    "9999999999999999999999999800000000000000000000000001"
    (Slr.Bignat.to_string sq);
  Alcotest.(check int) "compare" 1 (Slr.Bignat.compare a b);
  Alcotest.(check (option int)) "huge to_int" None (Slr.Bignat.to_int sq)

let test_bigfrac_dense () =
  let module B = Slr.Bigfrac in
  (* split 300 times between the last two labels: denominators blow far
     past 64 bits, order is preserved throughout *)
  let rec go a b k =
    if k > 0 then begin
      let m = B.mediant a b in
      Alcotest.(check bool) "mediant distinct from operands" true
        (B.compare m a <> 0 && B.compare m b <> 0);
      go b m (k - 1)
    end
  in
  go B.zero B.one 300;
  let half = B.of_ints ~num:1 ~den:2 in
  Alcotest.(check bool) "1/2 < 2/3" true B.(half < B.of_ints ~num:2 ~den:3)

(* ------------------------------------------------------------------ *)
(* Lexlabel: the "lexicographically sorted string" dense set *)

module L = Slr.Lexlabel

let key s = L.of_string s

let test_lexlabel_order () =
  Alcotest.(check bool) "least below everything" true
    (L.compare L.least (key "\x01") < 0);
  Alcotest.(check bool) "top above everything" true
    (L.compare (key "\xff\xff") L.top < 0);
  Alcotest.(check bool) "prefix is smaller" true
    (L.compare (key "ab") (key "abc") < 0);
  Alcotest.check_raises "trailing NUL rejected"
    (Invalid_argument "Lexlabel.of_string: trailing NUL is non-canonical")
    (fun () -> ignore (L.of_string "a\x00"))

let test_lexlabel_next () =
  (match L.next L.least with
  | Some n -> Alcotest.(check bool) "next greater" true (L.compare L.least n < 0)
  | None -> Alcotest.fail "least has a next");
  Alcotest.(check bool) "top has no next" true (L.next L.top = None)

let test_lexlabel_between_cases () =
  let check_between lo hi =
    match L.between ~lo ~hi with
    | Some m ->
        Alcotest.(check bool) "strictly inside" true
          (L.compare lo m < 0 && L.compare m hi < 0)
    | None -> Alcotest.fail "between must exist"
  in
  check_between L.least L.top;
  check_between L.least (key "\x01");
  check_between (key "a") (key "b");
  check_between (key "a") (key "a\x01");
  check_between (key "az") (key "b");
  check_between (key "\xff") L.top;
  check_between (key "abc") (key "abd")

(* the whole abstract protocol runs on string labels too *)
module Net = Slr.Simple_net

let test_lexlabel_network () =
  let net = Net.create ~labels:(module Slr.Label.Lex) ~nodes:6 ~dest:0 in
  List.iter (fun (a, b) -> Net.add_link net a b)
    [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ];
  (match Net.request net ~src:5 with
  | Net.Routed _ -> ()
  | _ -> Alcotest.fail "no route");
  (match Net.check_invariants net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* repair after a mid-chain break *)
  Net.break_link net 2 3;
  Net.add_link net 1 3;
  (match Net.request net ~src:5 with
  | Net.Routed _ -> ()
  | _ -> Alcotest.fail "no repair");
  match Net.check_invariants net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Ordering (Definitions 4-7) *)

let ord sn num den = O.make ~sn ~frac:(frac num den)

let test_ordering_criteria () =
  (* Definition 5: higher sn, or equal sn and smaller fraction *)
  Alcotest.(check bool) "fresher sn precedes" true
    (O.precedes (ord 1 1 2) (ord 2 9 10));
  Alcotest.(check bool) "smaller fraction precedes" true
    (O.precedes (ord 1 2 3) (ord 1 1 2));
  Alcotest.(check bool) "irreflexive" false
    (O.precedes (ord 1 1 2) (ord 1 1 2));
  Alcotest.(check bool) "unassigned is maximum" true
    (O.precedes O.unassigned (ord 1 1 2));
  Alcotest.(check bool) "destination is minimal at its sn" true
    (O.precedes (ord 1 1 1000000) (O.destination ~sn:1))

let test_ordering_min () =
  let a = ord 1 1 2 and b = ord 1 2 3 in
  (* b has the larger fraction, so a is "lower": min must return a *)
  Alcotest.check check_ordering "min picks lower" a (O.min b a);
  Alcotest.check check_ordering "min picks lower (sym)" a (O.min a b);
  Alcotest.check check_ordering "min with unassigned" a (O.min O.unassigned a)

let test_ordering_add () =
  (* Definition 6 *)
  let o = ord 3 1 2 in
  match O.add o (frac 2 3) with
  | Some o' ->
      Alcotest.check check_ordering "mediant add" (ord 3 3 5) o';
      (* Def. 6: if m/n < p/q then O + p/q ⊑ O *)
      Alcotest.(check bool) "O + p/q precedes O" true (O.precedes o' o)
  | None -> Alcotest.fail "add overflowed unexpectedly"

(* ------------------------------------------------------------------ *)
(* Algorithm 1 (NEWORDER) *)

module NO = Slr.New_order

let compute ~current ~cached ~adv = NO.compute ~current ~cached ~adv

let test_neworder_cases () =
  (* Case II (line 5): both seqnos stale -> next element of the adv *)
  let r =
    compute ~current:O.unassigned ~cached:O.unassigned
      ~adv:(O.destination ~sn:1)
  in
  Alcotest.(check bool) "case Fresher_next" true (r.NO.case = NO.Fresher_next);
  Alcotest.check check_ordering "adv + 1/1" (ord 1 1 2) r.NO.order;
  (* Case III (line 7): fresher adv, cached at the same sn -> split *)
  let r =
    compute ~current:(ord 1 9 10) ~cached:(ord 2 2 3) ~adv:(ord 2 1 2)
  in
  Alcotest.(check bool) "case Fresher_split" true (r.NO.case = NO.Fresher_split);
  Alcotest.check check_ordering "split fraction" (ord 2 3 5) r.NO.order;
  (* Case IV (line 10): current already satisfies the cached solicitation *)
  let r = compute ~current:(ord 2 1 2) ~cached:(ord 2 2 3) ~adv:(ord 2 1 3) in
  Alcotest.(check bool) "case Keep_current" true (r.NO.case = NO.Keep_current);
  Alcotest.check check_ordering "keeps current" (ord 2 1 2) r.NO.order;
  (* Case V (line 12): equal sn, out-of-order cached -> split *)
  let r = compute ~current:(ord 2 2 3) ~cached:(ord 2 2 3) ~adv:(ord 2 1 2) in
  Alcotest.(check bool) "case Equal_split" true (r.NO.case = NO.Equal_split);
  Alcotest.check check_ordering "split" (ord 2 3 5) r.NO.order;
  (* Case I (line 2): stale advertisement -> infinite *)
  let r = compute ~current:(ord 3 1 2) ~cached:O.unassigned ~adv:(ord 2 1 3) in
  Alcotest.(check bool) "case Infinite" true (r.NO.case = NO.Infinite);
  Alcotest.(check bool) "infinite result" false (O.is_finite r.NO.order)

let test_neworder_overflow () =
  let nearly = frac (F.bound - 1) F.bound in
  let r =
    compute
      ~current:(O.make ~sn:1 ~frac:F.one)
      ~cached:(O.make ~sn:2 ~frac:nearly)
      ~adv:(O.make ~sn:2 ~frac:(frac 1 F.bound))
  in
  Alcotest.(check bool) "overflow -> infinite" true (r.NO.case = NO.Infinite)

let test_neworder_custom_split () =
  (* Farey interpolation drops into Algorithm 1 (the §VI extension):
     between 1/2 and 2/3 both walks give 3/5, but between 3/10 and 1/3 the
     mediant gives 4/13 while the interval's simplest fraction... is also
     4/13; use (1/3, 1/2) where mediant = 2/5 and Farey = 2/5 too — so use
     a wide interval where they differ: (1/10, 9/10): mediant 10/20 = 1/2,
     Farey 1/2 as well. Denominator differences only show on narrow skewed
     intervals: (7/10, 5/7): mediant 12/17, Farey... check strictness and
     denominator no larger instead. *)
  let current = ord 2 9 10 in
  let cached = O.make ~sn:2 ~frac:(frac 5 7) in
  let adv = O.make ~sn:2 ~frac:(frac 7 10) in
  let with_mediant = compute ~current ~cached ~adv in
  let with_farey =
    NO.compute_with ~labels:(module Slr.Label.Farey) ~current ~cached ~adv
  in
  Alcotest.(check bool) "mediant split finite" true
    (O.is_finite with_mediant.NO.order);
  Alcotest.(check bool) "farey split finite" true
    (O.is_finite with_farey.NO.order);
  List.iter
    (fun r ->
      let g = O.frac r.NO.order in
      Alcotest.(check bool) "strictly inside" true
        F.(O.frac adv < g && g < O.frac cached))
    [ with_mediant; with_farey ];
  Alcotest.(check bool) "farey denominator no larger" true
    ((O.frac with_farey.NO.order).F.den <= (O.frac with_mediant.NO.order).F.den)

let test_neworder_degenerate_interval () =
  (* cached and advertisement carrying the same fraction leaves no room:
     Algorithm 1 must refuse rather than fabricate a non-strict label *)
  let r = compute ~current:(ord 2 9 10) ~cached:(ord 2 1 2) ~adv:(ord 2 1 2) in
  Alcotest.(check bool) "no strict label exists" false
    (O.is_finite r.NO.order)

let test_filter_successors () =
  let g = ord 2 1 2 in
  let succs =
    [ (1, ord 2 1 3); (2, ord 2 2 3); (3, ord 3 9 10); (4, ord 1 1 10) ]
  in
  let kept = NO.filter_successors ~order:g succs in
  Alcotest.(check (list int)) "keeps in-order successors" [ 1; 3 ]
    (List.sort compare (List.map fst kept))

(* ------------------------------------------------------------------ *)
(* Farey *)

let test_farey_simplest () =
  let simplest lo hi = Slr.Farey.simplest_between ~lo ~hi in
  Alcotest.(check (option check_frac)) "(0,1) -> 1/2" (Some (frac 1 2))
    (simplest F.zero F.one);
  Alcotest.(check (option check_frac)) "(1/2,2/3) -> 3/5" (Some (frac 3 5))
    (simplest (frac 1 2) (frac 2 3));
  Alcotest.(check (option check_frac)) "(1/3,1/2) -> 2/5" (Some (frac 2 5))
    (simplest (frac 1 3) (frac 1 2));
  Alcotest.(check (option check_frac)) "(3/10,1/3) -> 4/13"
    (Some (frac 4 13))
    (simplest (frac 3 10) (frac 1 3))

(* ------------------------------------------------------------------ *)
(* Simple_net (the paper's worked examples) *)

let mediant = (module Slr.Label.Mediant : Slr.Label.S)

let check_label = Alcotest.testable Slr.Label.pp Slr.Label.equal

let lfrac num den = Slr.Label.Frac (frac num den)

let test_example1 () =
  (* Fig. 1: T-A-B-C-D-E, request from E *)
  let net = Net.create ~labels:mediant ~nodes:6 ~dest:0 in
  List.iter (fun (a, b) -> Net.add_link net a b)
    [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ];
  (match Net.request net ~src:5 with
  | Net.Routed { replier; _ } -> Alcotest.(check int) "T replies" 0 replier
  | _ -> Alcotest.fail "no route");
  List.iteri
    (fun i expected ->
      Alcotest.check check_label
        (Printf.sprintf "label of node %d" i)
        expected (Net.label net i))
    [ lfrac 0 1; lfrac 1 2; lfrac 2 3; lfrac 3 4; lfrac 4 5; lfrac 5 6 ];
  match Net.check_invariants net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_example2 () =
  (* Fig. 2: stale nodes F, G, H relabel via splitting *)
  let net = Net.create ~labels:mediant ~nodes:9 ~dest:0 in
  List.iter (fun (a, b) -> Net.add_link net a b)
    [ (0, 1); (1, 2); (2, 6); (6, 7); (7, 8) ];
  (match Net.request net ~src:2 with Net.Routed _ -> () | _ -> assert false);
  Net.seed_label net 6 (lfrac 2 3);
  Net.seed_label net 7 (lfrac 2 3);
  Net.seed_label net 8 (lfrac 3 4);
  (match Net.request net ~src:8 with
  | Net.Routed { replier; _ } -> Alcotest.(check int) "A replies" 1 replier
  | _ -> Alcotest.fail "no route");
  List.iter
    (fun (i, expected) ->
      Alcotest.check check_label
        (Printf.sprintf "label of node %d" i)
        expected (Net.label net i))
    [ (8, lfrac 3 4); (7, lfrac 2 3); (6, lfrac 5 8); (2, lfrac 3 5);
      (1, lfrac 1 2); (0, lfrac 0 1) ];
  match Net.check_invariants net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_simple_net_no_route () =
  let net = Net.create ~labels:mediant ~nodes:4 ~dest:0 in
  Net.add_link net 2 3;
  (match Net.request net ~src:3 with
  | Net.No_route -> ()
  | _ -> Alcotest.fail "expected No_route");
  Alcotest.(check bool) "still unlabeled" true
    (Slr.Label.is_one (Net.label net 3))

let test_simple_net_break_and_repair () =
  let net = Net.create ~labels:mediant ~nodes:5 ~dest:0 in
  (* diamond: 0-1-3, 0-2-3, plus 3-4 *)
  List.iter (fun (a, b) -> Net.add_link net a b)
    [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ];
  (match Net.request net ~src:4 with Net.Routed _ -> () | _ -> assert false);
  let first_path = Option.get (Net.route_to_dest net ~src:4) in
  (* break the first hop the route uses after node 3 *)
  (match first_path with
  | _ :: _ :: via :: _ -> Net.break_link net 3 via
  | _ -> Alcotest.fail "unexpected path shape");
  (match Net.request net ~src:4 with
  | Net.Routed _ -> ()
  | _ -> Alcotest.fail "repair failed");
  (match Net.route_to_dest net ~src:4 with
  | Some path -> Alcotest.(check int) "path ends at dest" 0 (List.hd (List.rev path))
  | None -> Alcotest.fail "no route after repair");
  match Net.check_invariants net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Algorithm 1 line 7 on the executor: an unassigned relay whose cached
   solicitation minimum already carries the advertisement's sequence number
   splits (adv, cached). §II's narrative took the next element here (1/2);
   Algorithm 1 takes the mediant of 0/1 and 2/3, written 2/4. *)
let test_relay_splits_toward_cache () =
  (* T=0, P1=1, P2=2, Q=3: Q routes through P1 first, then through P2 *)
  let net = Net.create ~labels:mediant ~nodes:4 ~dest:0 in
  List.iter (fun (a, b) -> Net.add_link net a b) [ (0, 1); (0, 2); (1, 3) ];
  ignore (Net.request net ~src:3);
  Net.break_link net 1 3;
  Net.add_link net 2 3;
  (match Net.request net ~src:3 with
  | Net.Routed { replier; _ } -> Alcotest.(check int) "T replies" 0 replier
  | _ -> Alcotest.fail "no route through P2");
  let encoded i = Slr.Label.encode (Net.label net i) in
  Alcotest.(check string) "P2 splits (0/1, 2/3)" "2/4" (encoded 2);
  Alcotest.(check string) "Q keeps its label" "2/3" (encoded 3);
  match Net.check_invariants net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Examples 1 and 2 in the shape the paper gives them, on every registered
   label set: labels ascend away from T along the line, and the stale
   nodes nearest the requester keep their labels while the rest split. *)
let test_examples_every_label_set () =
  List.iter
    (fun id ->
      let labels = Slr.Label_set.instance id in
      let (module L : Slr.Label.S) = labels in
      let lt a b = L.compare a b < 0 in
      let check what ok =
        Alcotest.(check bool) (Slr.Label_set.name id ^ ": " ^ what) true ok
      in
      let verified net =
        check "loop-free" (Result.is_ok (Net.check_invariants net))
      in
      (* Example 1: T-A-B-C-D-E, request from E *)
      let net = Net.create ~labels ~nodes:6 ~dest:0 in
      List.iter (fun (a, b) -> Net.add_link net a b)
        [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ];
      ignore (Net.request net ~src:5);
      for i = 1 to 5 do
        check "line ascends" (lt (Net.label net (i - 1)) (Net.label net i))
      done;
      check "E assigned" (lt (Net.label net 5) L.one);
      verified net;
      (* Example 2: T-A-B-F-G-H; F and G stale at B's label, H above it *)
      let net = Net.create ~labels ~nodes:6 ~dest:0 in
      List.iter (fun (a, b) -> Net.add_link net a b)
        [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ];
      ignore (Net.request net ~src:2);
      let a = Net.label net 1 and b = Net.label net 2 in
      let h = Option.get (L.next b) in
      Net.seed_label net 3 b;
      Net.seed_label net 4 b;
      Net.seed_label net 5 h;
      (match Net.request net ~src:5 with
      | Net.Routed { replier; _ } -> check "A replies" (replier = 1)
      | _ -> check "routed" false);
      check "H keeps" (L.compare (Net.label net 5) h = 0);
      check "G keeps" (L.compare (Net.label net 4) b = 0);
      check "B splits above A" (lt a (Net.label net 2) && lt (Net.label net 2) b);
      check "F splits above B" (lt (Net.label net 2) (Net.label net 3));
      check "F below G" (lt (Net.label net 3) b);
      verified net)
    Slr.Label_set.all

(* ------------------------------------------------------------------ *)
(* Dag *)

let test_dag () =
  let successors = function 0 -> [] | 1 -> [ 0 ] | 2 -> [ 1; 0 ] | _ -> [ 2 ] in
  (match Slr.Dag.acyclic ~successors 4 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "acyclic graph reported cyclic");
  let cyclic = function 0 -> [ 1 ] | 1 -> [ 2 ] | _ -> [ 0 ] in
  match Slr.Dag.acyclic ~successors:cyclic 3 with
  | Ok () -> Alcotest.fail "cycle not detected"
  | Error cycle ->
      Alcotest.(check bool) "witness closes" true
        (List.length cycle >= 2 && List.hd cycle = List.hd (List.rev cycle))

(* Theorem 3's verdict: descent at every node, then acyclicity. *)
let test_loop_verdict () =
  let o = ord 1 in
  let verdict orders succs =
    Slr.Dag.check_graph (Array.length orders) (fun i ->
        Some (orders.(i), List.map (fun j -> (j, orders.(j))) succs.(i)))
  in
  (* 3 -> 1 -> 2 -> 0 with orderings descending toward 0 *)
  let orders = [| o 0 1; o 2 3; o 1 2; o 3 4 |] in
  (match verdict orders [| []; [ 2 ]; [ 0 ]; [ 1 ] |] with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("descending DAG rejected: " ^ m));
  (* the edge 2 -> 1 climbs from 1/2 to 2/3 *)
  (match verdict orders [| []; []; [ 1 ]; [] |] with
  | Ok () -> Alcotest.fail "out-of-order edge accepted"
  | Error m ->
      Alcotest.(check string) "names node and successor"
        "node 2 holds successor 1 out of order: (1, 1/2) not ⊑ (1, 2/3)" m);
  (* stale stored orderings: nodes 1 and 2 each hold the other at an
     ordering below their own, so every stored edge descends, yet the
     edges form a loop that only the acyclicity step catches (dropping
     that step from [Dag.check_graph] fails this case) *)
  let stale = function
    | 1 -> Some (o 1 2, [ (2, o 1 3) ])
    | 2 -> Some (o 1 2, [ (1, o 1 3) ])
    | _ -> None
  in
  match Slr.Dag.check_graph 3 stale with
  | Ok () -> Alcotest.fail "cycle of stale orderings accepted"
  | Error m ->
      Alcotest.(check string) "cycle witness" "successor cycle 1->2->1" m

let prop = Fixture.catalogue_case

let () =
  Alcotest.run "slr"
    [
      ( "fraction",
        [
          Alcotest.test_case "make validates" `Quick test_fraction_make_validates;
          Alcotest.test_case "order" `Quick test_fraction_order;
          Alcotest.test_case "mediant and next" `Quick test_fraction_mediant;
          Alcotest.test_case "Fibonacci 45-split bound" `Quick test_fibonacci_bound;
          prop "mediant lies strictly between" "fraction-mediant";
          prop "compare is antisymmetric" "fraction-order";
          prop "compare agrees with exact comparison" "fraction-order";
          prop "next-element is strictly greater" "fraction-order";
        ] );
      ( "bignat",
        [
          Alcotest.test_case "basics" `Quick test_bignat_basics;
          Alcotest.test_case "bigfrac density" `Quick test_bigfrac_dense;
          prop "bignat add matches int" "bignat-arith";
          prop "bignat mul matches int" "bignat-arith";
          prop "bignat decimal roundtrip" "bignat-arith";
        ] );
      ( "lexlabel",
        [
          Alcotest.test_case "order" `Quick test_lexlabel_order;
          Alcotest.test_case "next" `Quick test_lexlabel_next;
          Alcotest.test_case "between cases" `Quick test_lexlabel_between_cases;
          Alcotest.test_case "abstract SLR on strings" `Quick test_lexlabel_network;
          prop "lexlabel between lies strictly inside" "lexlabel-between";
          prop "lexlabel between anything and top" "lexlabel-between";
        ] );
      ( "ordering",
        [
          Alcotest.test_case "criteria (Def. 5)" `Quick test_ordering_criteria;
          Alcotest.test_case "min" `Quick test_ordering_min;
          Alcotest.test_case "addition (Def. 6)" `Quick test_ordering_add;
          prop "OC relation is transitive" "ordering-precedes";
          prop "OC relation is asymmetric" "ordering-precedes";
        ] );
      ( "neworder",
        [
          Alcotest.test_case "all five cases" `Quick test_neworder_cases;
          Alcotest.test_case "overflow" `Quick test_neworder_overflow;
          Alcotest.test_case "custom splitter (§VI)" `Quick
            test_neworder_custom_split;
          Alcotest.test_case "degenerate interval" `Quick
            test_neworder_degenerate_interval;
          Alcotest.test_case "successor elimination" `Quick test_filter_successors;
          prop "NEWORDER maintains order (Theorem 6)" "neworder-maintains";
          prop "NEWORDER is safe on arbitrary inputs" "neworder-maintains";
        ] );
      ( "farey",
        [
          Alcotest.test_case "simplest fractions" `Quick test_farey_simplest;
          prop "Farey result strictly inside" "farey-simplest";
          prop "Farey denominator is minimal" "farey-simplest";
          prop "Farey denominator <= mediant denominator" "farey-simplest";
        ] );
      ( "simple-net",
        [
          Alcotest.test_case "paper Example 1 (Fig. 1)" `Quick test_example1;
          Alcotest.test_case "paper Example 2 (Fig. 2)" `Quick test_example2;
          Alcotest.test_case "partitioned request" `Quick test_simple_net_no_route;
          Alcotest.test_case "break and repair" `Quick test_simple_net_break_and_repair;
          prop "abstract SLR is loop-free under random schedules"
            "abstract-loop-freedom";
          prop "unbounded SLR is loop-free under random schedules"
            "abstract-loop-freedom-unbounded";
        ] );
      ( "label-split",
        [
          Alcotest.test_case "relay splits toward its cache" `Quick
            test_relay_splits_toward_cache;
          Alcotest.test_case "paper examples on every label set" `Quick
            test_examples_every_label_set;
        ] );
      ( "dag",
        [
          Alcotest.test_case "acyclicity" `Quick test_dag;
          Alcotest.test_case "loop verdict" `Quick test_loop_verdict;
        ] );
    ]
