(* The dense-label-set party trick (paper §II): inserting nodes into an
   existing DAG without relabeling any predecessor — plus SLR's built-in
   multipath, and the bounded-set exhaustion that SRP masks with its
   sequence number.

   Run with: dune exec examples/multipath_insertion.exe *)

module F = Slr.Fraction
module L = Slr.Label
module Net = Slr.Simple_net

let labels = (module L.Mediant : L.S)

(* Part 1: splice fresh relays into a live path, one per round. The path
   endpoint labels never change; each newcomer squeezes strictly between
   its neighbours' labels (Eq. 1's mediant). *)
let insertion_demo () =
  Format.printf "=== inserting relays without relabeling predecessors ===@.";
  let rounds = 8 in
  let nodes = rounds + 3 in
  (* 0 = destination T, 1 = first relay A, 2 = endpoint Q, 3.. = splices *)
  let net = Net.create ~labels ~nodes ~dest:0 in
  Net.add_link net 0 1;
  Net.add_link net 1 2;
  (match Net.request net ~src:2 with Net.Routed _ -> () | _ -> assert false);
  Format.printf "initial chain: Q=%a -> A=%a -> T=%a@." L.pp (Net.label net 2)
    L.pp (Net.label net 1) L.pp (Net.label net 0);
  let q_before = Net.label net 2 in
  let current_successor = ref 1 in
  for round = 0 to rounds - 1 do
    let k = 3 + round in
    (* splice k between Q and Q's current successor *)
    Net.add_link net k !current_successor;
    Net.add_link net k 2;
    Net.break_link net 2 !current_successor;
    (match Net.request net ~src:2 with
    | Net.Routed _ -> ()
    | Net.No_route | Net.Label_exhausted _ -> assert false);
    (match Net.check_invariants net with
    | Ok () -> ()
    | Error e -> failwith e);
    Format.printf "round %d: new relay gets label %a (Q still %a, A still %a)@."
      (round + 1) L.pp (Net.label net k) L.pp (Net.label net 2) L.pp
      (Net.label net 1);
    current_successor := k
  done;
  assert (L.equal q_before (Net.label net 2));
  Format.printf "Q's label never moved: %a.@.@." L.pp (Net.label net 2)

(* Part 2: multipath. Give Q two disjoint feasible successors; both stay in
   its successor set, per §II "SLR inherently provides multiple paths". *)
let multipath_demo () =
  Format.printf "=== multipath successor sets ===@.";
  (* 0 = T, 1 = P1, 2 = P2, 3 = Q;  T-P1, T-P2, Q adjacent to both *)
  let net = Net.create ~labels ~nodes:4 ~dest:0 in
  Net.add_link net 0 1;
  Net.add_link net 0 2;
  Net.add_link net 1 3;
  (match Net.request net ~src:3 with Net.Routed _ -> () | _ -> assert false);
  (* now bring up the second path and route once more; P2 relabels with
     Q's 2/3 as the cached minimum, so Algorithm 1 line 7 splits 0/1 and
     2/3 into 2/4 *)
  Net.break_link net 1 3;
  Net.add_link net 2 3;
  (match Net.request net ~src:3 with Net.Routed _ -> () | _ -> assert false);
  Net.add_link net 1 3;
  (match Net.request net ~src:3 with Net.Routed _ -> () | _ -> assert false);
  let succs = Net.successors net 3 in
  Format.printf "Q's successor set: %s@."
    (String.concat ", "
       (List.map
          (fun (i, o) ->
            Format.asprintf "node %d with label %a" i L.pp o.Slr.Ordering.label)
          succs));
  Format.printf "losing either successor leaves a working route — no new \
                 route computation needed.@.@."

(* Part 3: the worst-case Fibonacci splitting chain. Bounded 32-bit
   fractions run dry after exactly 45 splits (the paper's bound); the
   Bignat-backed unbounded set never does, trading label width instead. *)
let exhaustion_demo () =
  Format.printf "=== label exhaustion: bounded vs unbounded ===@.";
  Format.printf "32-bit fractions: worst-case splits before overflow = %d@."
    (F.max_splits ());
  let module B = Slr.Bigfrac in
  (* always split the last two labels: denominators follow Fibonacci *)
  let rec chase a b k widest =
    if k = 0 then widest
    else
      let m = B.mediant a b in
      chase b m (k - 1) (Stdlib.max widest (B.width_bits m))
  in
  let widest = chase B.zero B.one 200 0 in
  Format.printf
    "unbounded fractions after 200 worst-case splits: still splitting, \
     widest label %d bits (vs 64 for SRP's bounded pair).@."
    widest;
  Format.printf
    "SRP's answer: keep the 64-bit label and let the destination's sequence \
     number reset the ordering on the rare overflow.@."

let () =
  insertion_demo ();
  multipath_demo ();
  exhaustion_demo ()
