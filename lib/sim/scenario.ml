module Frame = Wireless.Frame

type workload = {
  mobility : Wireless.Mobility.id;
  traffic : Traffic.Model.id;
  faults : Faults.Spec.t option;
}

type body = Workload of workload | Adversarial

type t = { name : string; summary : string; body : body }

let workload ?faults name summary ~mobility ~traffic =
  { name; summary; body = Workload { mobility; traffic; faults } }

let all =
  [
    workload "default"
      "random waypoint + CBR — the paper's workload, byte-identical to \
       plain runs"
      ~mobility:Wireless.Mobility.Waypoint_rw ~traffic:Traffic.Model.Cbr_model;
    workload "manhattan"
      "street-grid mobility (axis-aligned hops between corners) + CBR"
      ~mobility:Wireless.Mobility.Manhattan ~traffic:Traffic.Model.Cbr_model;
    workload "rpgm"
      "reference-point group mobility (members orbit a leader) + CBR"
      ~mobility:Wireless.Mobility.Rpgm ~traffic:Traffic.Model.Cbr_model;
    workload "churn"
      "static topology with rare one-shot relocations + CBR"
      ~mobility:Wireless.Mobility.Churn ~traffic:Traffic.Model.Cbr_model;
    workload "bursty"
      "random waypoint + on/off bursty conversations"
      ~mobility:Wireless.Mobility.Waypoint_rw ~traffic:Traffic.Model.Bursty;
    workload "convergecast"
      "random waypoint + many-to-one traffic into a single sink"
      ~mobility:Wireless.Mobility.Waypoint_rw
      ~traffic:Traffic.Model.Convergecast;
    workload "flash-crowd"
      "random waypoint + all flows igniting in a narrow window"
      ~mobility:Wireless.Mobility.Waypoint_rw ~traffic:Traffic.Model.Flash;
    workload "downtown"
      "street-grid mobility + bursty conversations"
      ~mobility:Wireless.Mobility.Manhattan ~traffic:Traffic.Model.Bursty;
    workload "hostile"
      "random waypoint + CBR under the default fault plan (link flaps, \
       crashes, loss bursts)"
      ~mobility:Wireless.Mobility.Waypoint_rw ~traffic:Traffic.Model.Cbr_model
      ~faults:Faults.Spec.default;
    {
      name = "vg-forged-rrep";
      summary =
        "van Glabbeek 3-node counterexample topology with a forged stale \
         route reply injected mid-repair; online loop monitors armed on \
         all five protocols";
      body = Adversarial;
    };
  ]

let default = List.hd all

let names = List.map (fun t -> t.name) all

let find name = List.find_opt (fun t -> t.name = name) all

let is_adversarial t = t.body = Adversarial

let apply t config =
  match t.body with
  | Adversarial ->
      invalid_arg
        (Printf.sprintf
           "Scenario.apply: %s is an adversarial scenario, not a campaign \
            workload"
           t.name)
  | Workload w ->
      let faults =
        (* a scenario's fault plan yields to an explicitly requested one *)
        match w.faults with
        | Some f when Faults.Spec.is_none config.Config.faults -> f
        | _ -> config.faults
      in
      { config with mobility = w.mobility; traffic = w.traffic; faults }

(* ------------------------------------------------------------------ *)
(* The adversarial suite: the van Glabbeek AODV counterexample topology
   (CONCUR/ESOP analyses of RFC 3561) generalized over all five
   protocols. Nodes s=0, a=1, d=2 with links s-a and s-d; a discovers d
   through s, the s-d link breaks, s starts repair — and an adversary
   injects the stale route advertisement the published interleaving
   relies on, phrased in each protocol's own message vocabulary. An
   online loop monitor (mutation hooks where the protocol offers them, a
   250 ms poll otherwise) watches the next-hop graph toward d; SRP is
   additionally held to the reference-model invariant. *)

let s, a, d = (0, 1, 2)

let vg_nodes = 3

type verdict = {
  vprotocol : Config.protocol;
  flagged : bool;  (** the online monitor saw a routing loop mid-run *)
  final_cycle : bool;  (** the next-hop graph toward [d] ends cyclic *)
  detail : string;
}

let loop_detected v = v.flagged || v.final_cycle

let pp_verdict ppf v =
  Format.fprintf ppf "%-5s %s  %s"
    (Config.protocol_name v.vprotocol)
    (if loop_detected v then "LOOP" else "ok  ")
    v.detail

let next_hop_cycle ~next_hop =
  Result.is_error
    (Slr.Dag.acyclic
       ~successors:(fun i ->
         if i = d then []
         else match next_hop i with Some nh -> [ nh ] | None -> [])
       vg_nodes)

let mk_data ~origin ~seq ~at =
  { Frame.origin; final_dst = d; flow = 0; seq; sent_at = at; hops = 0 }

let forged_frame payload kind =
  Frame.with_kind
    (Frame.make ~src:a ~dst:(Frame.Unicast s) ~size:64 ~payload)
    kind

let run_adversarial ~protocol =
  let engine = Des.Engine.create () in
  let wire =
    Check.Wire.create ~engine ~rng:(Des.Rng.create 99L) ~nodes:vg_nodes ()
  in
  let flagged = ref false in
  (* per protocol: the agents, a current-cycle oracle, the forged frame
     (its own stale advertisement), and whether mutation hooks provide
     online monitoring (else we poll) *)
  let agents, cycle, forge, online, describe =
    match protocol with
    | Config.Aodv ->
        let pairs =
          Array.init vg_nodes (fun i ->
              Protocols.Aodv.create_full (Check.Wire.ctx wire i))
        in
        let ts = Array.map fst pairs in
        let cycle () =
          next_hop_cycle ~next_hop:(fun i -> Protocols.Aodv.next_hop ts.(i) ~dst:d)
        in
        Array.iter
          (fun t ->
            Protocols.Aodv.on_route_change t (fun _ ->
                if cycle () then flagged := true))
          ts;
        let forge =
          forged_frame
            (Protocols.Aodv.Rrep
               {
                 Protocols.Aodv.rp_src = s;
                 rp_dst = d;
                 rp_dst_seqno = 1;
                 rp_hops = 1;
                 rp_lifetime = 10.0;
               })
            "rrep"
        in
        (Array.map snd pairs, cycle, forge, true, fun () -> "stale RREP")
    | Config.Ldr ->
        let pairs =
          Array.init vg_nodes (fun i ->
              Protocols.Ldr.create_full (Check.Wire.ctx wire i))
        in
        let ts = Array.map fst pairs in
        let cycle () =
          next_hop_cycle ~next_hop:(fun i -> Protocols.Ldr.next_hop ts.(i) ~dst:d)
        in
        let forge =
          forged_frame
            (Protocols.Ldr.Rrep
               {
                 Protocols.Ldr.rp_src = s;
                 rp_id = 7;
                 rp_dst = d;
                 rp_label = { Protocols.Ldr.sn = 1; fd = 1 };
                 rp_dist = 1;
                 rp_lifetime = 10.0;
               })
            "rrep"
        in
        (Array.map snd pairs, cycle, forge, false, fun () -> "stale RREP")
    | Config.Dsr ->
        let pairs =
          Array.init vg_nodes (fun i ->
              Protocols.Dsr.create_full (Check.Wire.ctx wire i))
        in
        let ts = Array.map fst pairs in
        let cycle () =
          next_hop_cycle ~next_hop:(fun i ->
              match Protocols.Dsr.cached_path ts.(i) ~dst:d with
              | Some (_ :: nh :: _) -> Some nh
              | _ -> None)
        in
        let forge =
          forged_frame
            (Protocols.Dsr.Rrep
               { Protocols.Dsr.rp_path = [ s; a; d ]; rp_back = [] })
            "rrep"
        in
        (Array.map snd pairs, cycle, forge, false, fun () -> "stale RREP")
    | Config.Olsr ->
        let pairs =
          Array.init vg_nodes (fun i ->
              Protocols.Olsr.create_full (Check.Wire.ctx wire i))
        in
        let ts = Array.map fst pairs in
        let cycle () =
          next_hop_cycle ~next_hop:(fun i -> Protocols.Olsr.next_hop ts.(i) ~dst:d)
        in
        let forge =
          forged_frame
            (Protocols.Olsr.Tc
               { Protocols.Olsr.t_origin = a; t_ansn = 42; t_advertised = [ d ] })
            "tc"
        in
        (Array.map snd pairs, cycle, forge, false, fun () -> "forged TC")
    | Config.Srp ->
        let model = Check.Slr_model.create ~nodes:vg_nodes in
        let violation = ref None in
        let pairs =
          Array.init vg_nodes (fun i ->
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
                  | Error m ->
                      flagged := true;
                      if !violation = None then violation := Some m);
              (t, agent))
        in
        let ts = Array.map fst pairs in
        let cycle () =
          (* Theorem 3: every node precedes its stored successors, and the
             feasible-successor graph toward the destination is a DAG *)
          Result.is_error
            (Slr.Dag.check_graph vg_nodes (fun i ->
                 if i = d then None
                 else
                   let own = Protocols.Srp.ordering ts.(i) ~dst:d in
                   Some (own, Protocols.Srp.successor_orderings ts.(i) ~dst:d)))
        in
        let forge =
          forged_frame
            (Protocols.Srp.Rrep
               {
                 Protocols.Srp.rp_src = s;
                 rp_id = 7;
                 rp_dst = d;
                 rp_order =
                   Slr.Ordering.make ~sn:1
                     ~frac:(Slr.Fraction.make ~num:1 ~den:2);
                 rp_dist = 1;
                 rp_lifetime = 10.0;
                 rp_n = false;
               })
            "rrep"
        in
        let describe () =
          match !violation with
          | Some m -> "model violation: " ^ m
          | None ->
              Printf.sprintf "reference model green (%d observations)"
                (Check.Slr_model.observations model)
        in
        (Array.map snd pairs, cycle, forge, true, describe)
  in
  Array.iteri (fun i agent -> Check.Wire.set_agent wire i agent) agents;
  Check.Wire.add_link wire s a;
  Check.Wire.add_link wire s d;
  (* protocols without mutation hooks get a 250 ms polling monitor *)
  if not online then begin
    let rec poll t =
      ignore
        (Des.Engine.schedule_at engine ~time:t (fun () ->
             if cycle () then flagged := true;
             if t < 30.0 then poll (t +. 0.25)))
    in
    poll 0.25
  end;
  (* phase A: a discovers d through s *)
  ignore
    (Des.Engine.schedule_at engine ~time:0.1 (fun () ->
         agents.(a).Protocols.Routing_intf.originate
           (mk_data ~origin:a ~seq:0 ~at:0.1)
           ~size:512));
  Des.Engine.run engine ~until:5.0;
  (* phase B: the s-d link breaks and s starts repair *)
  Check.Wire.remove_link wire s d;
  ignore
    (Des.Engine.schedule_at engine ~time:5.1 (fun () ->
         agents.(s).Protocols.Routing_intf.originate
           (mk_data ~origin:s ~seq:1 ~at:5.1)
           ~size:512));
  Des.Engine.run engine ~until:6.0;
  (* phase C: the adversary replays the stale advertisement *)
  Check.Wire.inject wire ~from:a ~at:s forge;
  Des.Engine.run engine ~until:30.0;
  let final_cycle = cycle () in
  if final_cycle then flagged := true;
  let detail =
    match protocol with
    | Config.Srp -> describe ()
    | _ ->
        Printf.sprintf "%s injected; %s" (describe ())
          (if final_cycle then "next-hop cycle persists"
           else if !flagged then "transient next-hop cycle flagged"
           else "no next-hop cycle")
  in
  { vprotocol = protocol; flagged = !flagged; final_cycle; detail }

let run_adversarial_all () =
  List.map (fun protocol -> run_adversarial ~protocol) Config.all_protocols
