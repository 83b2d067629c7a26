(* Quickstart: the paper's Examples 1 and 2 (Figs. 1-2), executed on the
   abstract SLR machine with the proper-fraction label set, then one real
   SRP simulation.

   Run with: dune exec examples/quickstart.exe *)

module Net = Slr.Simple_net

(* Node numbering used throughout: T=0 A=1 B=2 C=3 D=4 E=5 F=6 G=7 H=8 *)
let name = [| "T"; "A"; "B"; "C"; "D"; "E"; "F"; "G"; "H" |]

let print_labels net ids =
  List.iter
    (fun i ->
      Format.printf "  %s: %a%s@." name.(i) Slr.Label.pp (Net.label net i)
        (if Net.has_route net i then "" else "  (no route)"))
    ids

let labels = (module Slr.Label.Mediant : Slr.Label.S)

let frac num den = Slr.Label.Frac (Slr.Fraction.make ~num ~den)

let () =
  Format.printf "=== Example 1 (Fig. 1): initial labeling of a line ===@.";
  (* T - A - B - C - D - E *)
  let net = Net.create ~labels ~nodes:9 ~dest:0 in
  List.iter
    (fun (a, b) -> Net.add_link net a b)
    [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ];
  (match Net.request net ~src:5 with
  | Net.Routed { replier; reply_path } ->
      Format.printf "E requested a route; %s replied; reply path %s@."
        name.(replier)
        (String.concat "->" (List.map (fun i -> name.(i)) reply_path))
  | Net.No_route -> Format.printf "no route?!@."
  | Net.Label_exhausted i -> Format.printf "label exhausted at %d?!@." i);
  Format.printf "labels after the computation (paper: 5/6 4/5 3/4 2/3 1/2 0/1):@.";
  print_labels net [ 5; 4; 3; 2; 1; 0 ];
  (match Net.check_invariants net with
  | Ok () -> Format.printf "topological order verified: loop-free.@."
  | Error e -> Format.printf "INVARIANT VIOLATION: %s@." e);

  Format.printf "@.=== Example 2 (Fig. 2): inserting nodes F, G, H ===@.";
  (* F, G, H once knew routes to T, so they carry labels but no successors.
     The paper gives them labels 2/3, 2/3 and 3/4. *)
  let net2 = Net.create ~labels ~nodes:9 ~dest:0 in
  List.iter
    (fun (a, b) -> Net.add_link net2 a b)
    [ (0, 1); (1, 2); (2, 6); (6, 7); (7, 8) ];
  (* replay history so A and B hold the Fig. 2 labels 1/2 and 2/3 *)
  (match Net.request net2 ~src:2 with
  | Net.Routed _ -> ()
  | _ -> assert false);
  (* F, G and H "once knew a route to T, so they have node labels" —
     seed the stale labels Fig. 2 starts from *)
  Net.seed_label net2 6 (frac 2 3);
  Net.seed_label net2 7 (frac 2 3);
  Net.seed_label net2 8 (frac 3 4);
  Format.printf "stale labels before H's request:@.";
  print_labels net2 [ 8; 7; 6; 2; 1; 0 ];
  (match Net.request net2 ~src:8 with
  | Net.Routed { replier; _ } ->
      Format.printf "H requested; %s replied (A is the first in-order node).@."
        name.(replier)
  | _ -> Format.printf "request failed?!@.");
  Format.printf
    "labels after re-labeling (paper: H 3/4, G 2/3, F 5/8, B 3/5, A 1/2):@.";
  print_labels net2 [ 8; 7; 6; 2; 1; 0 ];
  (match Net.check_invariants net2 with
  | Ok () -> Format.printf "topological order verified: loop-free.@."
  | Error e -> Format.printf "INVARIANT VIOLATION: %s@." e);

  Format.printf "@.=== A real SRP run (20 nodes, light traffic) ===@.";
  let config =
    {
      Sim.Config.small with
      nodes = 20;
      terrain = Wireless.Terrain.make ~width:800.0 ~height:400.0;
      flows = 3;
      duration = 30.0;
      pause = 900.0;
      protocol = Sim.Config.Srp;
    }
  in
  let result = Sim.Runner.run config in
  Format.printf "%a@." Sim.Metrics.pp_result result;
  Format.printf
    "(SRP's average sequence number is %.2f — the destination never needed \
     to reset a path.)@."
    result.Sim.Metrics.avg_seqno
