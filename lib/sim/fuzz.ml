module Gen = Check.Gen
module Runner_c = Check.Runner
module Topo = Check.Topo
module Slr_model = Check.Slr_model

let asprintf = Format.asprintf

(* ------------------------------------------------------------------ *)
(* Scenario generator: a scaled-down Config built from [Config.small] on
   a terrain sized to the node count. *)

type sim_case = {
  protocol : Config.protocol;
  nodes : int;
  duration : float;
  flows : int;
  pause : float;
  sim_seed : int;
  faults : Faults.Spec.t;
  labels : Slr.Label_set.id;
  mobility : Wireless.Mobility.id;
  traffic : Traffic.Model.id;
}

(* the terrain sized to the node count so random placements stay
   multi-hop but mostly connected at the default 250 m radio range *)
let strip nodes =
  Wireless.Terrain.make ~width:(300.0 +. (30.0 *. float_of_int nodes))
    ~height:300.0

(* kilonode world at the paper's density (one node per 13,200 m^2, the
   same constant the --scale presets hold): a long thin strip at 1000
   nodes would be 30 km of corridor, so scale a square instead *)
let square nodes =
  let side = sqrt (13_200.0 *. float_of_int nodes) in
  Wireless.Terrain.make ~width:side ~height:side

let to_config ~terrain c =
  Config.with_labels
    {
      Config.small with
      protocol = c.protocol;
      nodes = c.nodes;
      terrain = terrain c.nodes;
      duration = c.duration;
      traffic_start = 1.0;
      flows = c.flows;
      flow_mean_duration = c.duration;
      pause = c.pause;
      seed = c.sim_seed;
      faults = c.faults;
      mobility = c.mobility;
      traffic = c.traffic;
    }
    c.labels

(* mobility/traffic are pinned values, not generators: applied by a
   draw-free map so the default catalogue's case streams are unchanged *)
let case_gen ?(labels = Gen.pure Slr.Label_set.default)
    ?(mobility = Wireless.Mobility.default) ?(traffic = Traffic.Model.default)
    ~protocol ~faults () =
  Gen.bind protocol (fun protocol ->
      Gen.bind faults (fun faults ->
          Gen.bind labels (fun labels ->
              Gen.map2
                (fun (nodes, flows) (duration, pause, sim_seed) ->
                  {
                    protocol;
                    nodes;
                    duration;
                    flows;
                    pause;
                    sim_seed;
                    faults;
                    labels;
                    mobility;
                    traffic;
                  })
                (Gen.pair (Gen.int_range 8 14) (Gen.int_range 2 4))
                (Gen.triple
                   (Gen.map float_of_int (Gen.int_range 8 20))
                   (Gen.map float_of_int (Gen.int_range 0 5))
                   (Gen.no_shrink (Gen.int_range 0 1_000_000))))))

(* scale-smoke generator paired with the [square] terrain: ~1k nodes on a
   2-3 s horizon, about a second of wall clock per case. Shrinking still
   walks nodes toward the low end, which keeps counterexamples as small as
   this world allows. *)
let kilo_case_gen ~protocol ~faults () =
  Gen.bind protocol (fun protocol ->
      Gen.bind faults (fun faults ->
          Gen.map2
            (fun (nodes, flows) (duration, pause, sim_seed) ->
              {
                protocol;
                nodes;
                duration;
                flows;
                pause;
                sim_seed;
                faults;
                labels = Slr.Label_set.default;
                mobility = Wireless.Mobility.default;
                traffic = Traffic.Model.default;
              })
            (Gen.pair (Gen.int_range 900 1100) (Gen.int_range 2 4))
            (Gen.triple
               (Gen.map float_of_int (Gen.int_range 2 3))
               (Gen.map float_of_int (Gen.int_range 0 2))
               (Gen.no_shrink (Gen.int_range 0 1_000_000)))))

let pp_case ppf c =
  Format.fprintf ppf
    "%s nodes=%d duration=%.0fs flows=%d pause=%.0fs seed=%d faults=[%a]"
    (Config.protocol_name c.protocol)
    c.nodes c.duration c.flows c.pause c.sim_seed Faults.Spec.pp c.faults;
  if c.labels <> Slr.Label_set.default then
    Format.fprintf ppf " labels=%s" (Slr.Label_set.name c.labels);
  if c.mobility <> Wireless.Mobility.default then
    Format.fprintf ppf " mobility=%s" (Wireless.Mobility.name c.mobility);
  if c.traffic <> Traffic.Model.default then
    Format.fprintf ppf " traffic=%s" (Traffic.Model.name c.traffic)

let print_case = asprintf "%a" pp_case

(* ------------------------------------------------------------------ *)
(* SRP under the full simulator vs the reference model: every route
   mutation reported by the white-box hook must satisfy the Ordering
   Criteria, label monotonicity and global acyclicity. Crash faults are
   excluded ({!Topo.fault_spec} default): a reboot wipes volatile label
   state, which legitimately regresses orderings. *)

exception Model_violation of string

let sim_model_law_in terrain c =
  let config = to_config ~terrain c in
  let nodes = config.Config.nodes in
  let model = Slr_model.create ~nodes in
  let srps : Protocols.Srp.t option array = Array.make nodes None in
  try
    let (_ : Metrics.result) =
      Runner.run_custom config
        ~build:(fun i ctx ->
          let t, agent =
            Protocols.Srp.create_full ~config:config.Config.srp ctx
          in
          srps.(i) <- Some t;
          Protocols.Srp.on_route_change t (fun dst ->
              match
                Slr_model.observe model
                  {
                    Slr_model.node = i;
                    dst;
                    order = Protocols.Srp.ordering t ~dst;
                    succs = Protocols.Srp.successor_orderings t ~dst;
                  }
              with
              | Ok () -> ()
              | Error m -> raise (Model_violation m));
          agent)
        ~on_start:(fun _ -> ())
    in
    ignore (Slr_model.observations model);
    Ok ()
  with Model_violation m -> Error m

let sim_model_law = sim_model_law_in strip

let prop_sim_model_with ?(name = "srp-sim-model") ?mobility ?traffic labels =
  Runner_c.cell ~cost:10 ~name ~print:print_case
    (case_gen ~labels ?mobility ?traffic
       ~protocol:(Gen.pure Config.Srp)
       ~faults:
         (Gen.frequency
            [
              (2, Gen.pure Faults.Spec.none); (3, Topo.fault_spec ());
            ])
       ())
    sim_model_law

let prop_sim_model = prop_sim_model_with (Gen.pure Slr.Label_set.default)

(* the identical oracle per label-set instance — Def. 5 / Eq. 3 and global
   acyclicity are theorems about the ordering, not the concrete set *)
let prop_sim_model_for id =
  prop_sim_model_with
    ~name:("srp-sim-model-" ^ Slr.Label_set.name id)
    (Gen.pure id)

(* ------------------------------------------------------------------ *)
(* Packet conservation: delivered + dropped + in-flight = originated,
   with the structured trace and the metrics counters agreeing on each
   term. Copies complicate the ledger: a lost MAC ack makes the sender
   retry a frame the receiver already accepted, so one packet can raise
   several deliver (or drop) events — the metrics deliberately count
   unique packets for delivery and raw events for drops; a data frame
   discarded by a full MAC IFQ is traced as a [pkt-drop] but counted by
   the MAC's [drop_queue_full], not the routing-layer reasons. The law
   checks exactly those semantics, plus that no terminal event ever
   names a packet that was not originated. *)

type ledger = {
  mutable originate_events : int;
  mutable drop_events : int;  (** routing-layer drop events *)
  mutable mac_queue_events : int;
      (** data frames discarded by a full MAC IFQ — traced as [pkt-drop]
          with reason ["mac queue full"] but counted by the MAC's
          [drop_queue_full], not by the routing-layer [drop_reasons] *)
  originated : (int * int, unit) Hashtbl.t;
  delivered : (int * int, unit) Hashtbl.t;
  dropped : (int * int, unit) Hashtbl.t;
  mutable dup_originate : (int * int) option;
  mutable orphan : (string * int * int) option;
      (** first terminal event naming a never-originated packet *)
}

let conservation_law_in terrain c =
  let l =
    {
      originate_events = 0;
      drop_events = 0;
      mac_queue_events = 0;
      originated = Hashtbl.create 256;
      delivered = Hashtbl.create 256;
      dropped = Hashtbl.create 64;
      dup_originate = None;
      orphan = None;
    }
  in
  let known kind flow seq =
    if not (Hashtbl.mem l.originated (flow, seq)) && l.orphan = None then
      l.orphan <- Some (kind, flow, seq)
  in
  let trace =
    Trace.callback ~clock:(fun () -> 0.0) (fun r ->
        match r.Trace.ev with
        | Trace.Pkt_originate { flow; seq; _ } ->
            l.originate_events <- l.originate_events + 1;
            if Hashtbl.mem l.originated (flow, seq) then (
              if l.dup_originate = None then l.dup_originate <- Some (flow, seq))
            else Hashtbl.replace l.originated (flow, seq) ()
        | Trace.Pkt_deliver { flow; seq; _ } ->
            known "deliver" flow seq;
            Hashtbl.replace l.delivered (flow, seq) ()
        | Trace.Pkt_drop { flow; seq; reason; _ } ->
            known "drop" flow seq;
            if reason = "mac queue full" then
              l.mac_queue_events <- l.mac_queue_events + 1
            else l.drop_events <- l.drop_events + 1;
            Hashtbl.replace l.dropped (flow, seq) ()
        | _ -> ())
  in
  let result = Runner.run ~trace (to_config ~terrain c) in
  let metric_drops =
    List.fold_left (fun acc (_, n) -> acc + n) 0 result.Metrics.drop_reasons
  in
  let dropped_only =
    Hashtbl.fold
      (fun k () acc -> if Hashtbl.mem l.delivered k then acc else acc + 1)
      l.dropped 0
  in
  let in_flight =
    result.Metrics.sent - Hashtbl.length l.delivered - dropped_only
  in
  match (l.dup_originate, l.orphan) with
  | Some (flow, seq), _ ->
      Error (Printf.sprintf "packet %d:%d originated twice" flow seq)
  | _, Some (kind, flow, seq) ->
      Error
        (Printf.sprintf "%s event for packet %d:%d that never originated"
           kind flow seq)
  | None, None ->
      if result.Metrics.sent <> l.originate_events then
        Error
          (Printf.sprintf "metrics sent %d but %d originate events traced"
             result.Metrics.sent l.originate_events)
      else if result.Metrics.delivered <> Hashtbl.length l.delivered then
        Error
          (Printf.sprintf
             "metrics delivered %d but %d unique packets delivered in trace"
             result.Metrics.delivered
             (Hashtbl.length l.delivered))
      else if metric_drops <> l.drop_events then
        Error
          (Printf.sprintf
             "metrics count %d routing drops but %d drop events traced"
             metric_drops l.drop_events)
      else if result.Metrics.drop_queue_full < l.mac_queue_events then
        Error
          (Printf.sprintf
             "MAC counts %d queue-full drops but %d traced on data frames"
             result.Metrics.drop_queue_full l.mac_queue_events)
      else if in_flight < 0 then
        Error
          (Printf.sprintf
             "ledger overdrawn: %d originated, %d delivered, %d dropped-only"
             result.Metrics.sent
             (Hashtbl.length l.delivered)
             dropped_only)
      else Ok ()

let conservation_law = conservation_law_in strip

let prop_conservation_with ?(name = "metrics-conservation") ?mobility ?traffic
    labels =
  Runner_c.cell ~cost:10 ~name ~print:print_case
    (case_gen ~labels ?mobility ?traffic
       ~protocol:(Gen.elements Config.all_protocols)
       ~faults:
         (Gen.frequency
            [
              (3, Gen.pure Faults.Spec.none);
              (2, Topo.fault_spec ~crashes:true ());
            ])
       ())
    conservation_law

let prop_conservation =
  prop_conservation_with (Gen.pure Slr.Label_set.default)

(* ------------------------------------------------------------------ *)
(* Scale smoke: the same two oracles on a reduced-horizon kilonode
   world. The laws are node-count agnostic, so the only new thing under
   test is the machinery the kilonode path leans on — the grid channel
   at density, the flattened event loop, heap behaviour at deep queues.
   Cost 100 keeps these to a case or two per catalogue run: one case is
   ~1 s of wall clock, three orders of magnitude above a small-world
   case. *)

let kilo_faults =
  Gen.frequency [ (2, Gen.pure Faults.Spec.none); (1, Topo.fault_spec ()) ]

let prop_sim_model_1k =
  Runner_c.cell ~cost:100 ~name:"srp-sim-model-1k" ~print:print_case
    (kilo_case_gen ~protocol:(Gen.pure Config.Srp) ~faults:kilo_faults ())
    (sim_model_law_in square)

let prop_conservation_1k =
  Runner_c.cell ~cost:100 ~name:"metrics-conservation-1k" ~print:print_case
    (kilo_case_gen
       ~protocol:(Gen.elements Config.all_protocols)
       ~faults:kilo_faults ())
    (conservation_law_in square)

(* ------------------------------------------------------------------ *)
(* Checkpoint–resume equivalence: journal a small campaign, truncate the
   journal to an arbitrary prefix plus a torn fragment (what a kill
   mid-append leaves behind), resume, and demand the resumed campaign be
   byte-identical — report text and JSON — to a straight-through run. *)

type resume_case = { base_case : sim_case; trials : int; cut : int }

let resume_case_gen ?labels ?mobility ?traffic () =
  Gen.bind
    (case_gen ?labels ?mobility ?traffic
       ~protocol:(Gen.elements Config.all_protocols)
       ~faults:(Gen.pure Faults.Spec.none) ())
    (fun base_case ->
      Gen.map2
        (fun trials cut ->
          { base_case = { base_case with duration = 6.0 }; trials; cut })
        (Gen.int_range 1 2) (Gen.int_range 0 16))

let print_resume_case c =
  asprintf "%a trials=%d cut=%d" pp_case c.base_case c.trials c.cut

let campaign_fingerprint t =
  asprintf "%a" Report.all t ^ Trace.Json.to_string (Report.campaign_json t)

let resume_equiv_law c =
  let base = to_config ~terrain:strip c.base_case in
  let pauses = [ 0.0; c.base_case.pause +. 1.0 ] in
  let campaign ?checkpoint ~jobs () =
    Experiment.run ?checkpoint ~jobs ~pause_scale:1.0 ~base
      ~protocols:[ c.base_case.protocol ] ~pauses ~trials:c.trials
      ~progress:ignore ()
  in
  let straight = campaign_fingerprint (campaign ~jobs:1 ()) in
  let path = Filename.temp_file "manet_fuzz_ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let journaled = campaign_fingerprint (campaign ~checkpoint:path ~jobs:1 ()) in
      if journaled <> straight then
        Error "journaled run differs from straight-through"
      else begin
        let lines =
          In_channel.with_open_text path In_channel.input_lines
          |> List.filter (fun l -> String.trim l <> "")
        in
        let cells = List.length lines - 1 in
        (* header + an arbitrary prefix of cells, then a torn fragment *)
        let keep = 1 + (c.cut mod (cells + 1)) in
        Out_channel.with_open_text path (fun oc ->
            List.iteri
              (fun i l -> if i < keep then Out_channel.output_string oc (l ^ "\n"))
              lines;
            Out_channel.output_string oc "{\"cell\":{\"proto");
        let resumed = campaign_fingerprint (campaign ~checkpoint:path ~jobs:2 ()) in
        if resumed <> straight then
          Error
            (Printf.sprintf
               "resumed campaign differs from straight-through (kept %d of %d \
                cells)"
               (keep - 1) cells)
        else Ok ()
      end)

let prop_resume_equiv_with ?(name = "campaign-resume-equiv") ?mobility
    ?traffic labels =
  Runner_c.cell ~cost:10 ~name ~print:print_resume_case
    (resume_case_gen ~labels ?mobility ?traffic ())
    resume_equiv_law

let prop_resume_equiv =
  prop_resume_equiv_with (Gen.pure Slr.Label_set.default)

let props =
  [
    prop_sim_model;
    prop_conservation;
    prop_resume_equiv;
    prop_sim_model_1k;
    prop_conservation_1k;
  ]
  @ List.map prop_sim_model_for
      (List.filter
         (fun id -> id <> Slr.Label_set.default)
         Slr.Label_set.all)

(* `manet_sim fuzz --labels <set>` and `--scenario <name>`: the core
   catalogue with every generated case pinned to one label-set instance
   and to the scenario's mobility and traffic models (cell names
   unchanged, so --prop/--replay stay stable). *)
let props_pinned ?(labels = Slr.Label_set.default) ?mobility ?traffic () =
  let labels = Gen.pure labels in
  [
    prop_sim_model_with ?mobility ?traffic labels;
    prop_conservation_with ?mobility ?traffic labels;
    prop_resume_equiv_with ?mobility ?traffic labels;
  ]
