(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Table I, Figs. 3-7), runs label-arithmetic and channel
   micro-benchmarks (E7), and two ablations of design choices called out in
   DESIGN.md (E8). Argument parsing lives in {!Bench_cli} (testable); this
   file only drives the sections.

   The campaign behind table1/fig3..fig7 runs once and is shared, farmed
   over [-j N] domains, and its JSON twin gains a ["perf"] member (wall
   time, engine events, events/s) used by the [--check-regression] gate. *)

module J = Trace.Json

let wants opts section =
  List.mem "all" opts.Bench_cli.sections
  || List.mem section opts.Bench_cli.sections

let wants_campaign opts =
  List.exists (wants opts)
    [ "campaign"; "table1"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7" ]

(* ------------------------------------------------------------------ *)
(* The simulation campaign shared by Table I and Figs. 3-7 *)

let base_config opts =
  let base =
    if opts.Bench_cli.full then { Sim.Config.paper with seed = 1 }
    else
      { Sim.Config.reproduction with
        duration = opts.Bench_cli.duration;
        flows = opts.Bench_cli.flows;
        seed = 1;
      }
  in
  let base = Sim.Config.with_channel base opts.Bench_cli.channel in
  let base =
    match opts.Bench_cli.scale with
    | Some s -> Sim.Config.apply_scale s base
    | None -> base
  in
  Sim.Scenario.apply opts.Bench_cli.scenario
    (Sim.Config.with_labels base opts.Bench_cli.labels)

(* The checkpoint (--resume) only arms on the measured pass: the sequential
   reference pass of --compare-sequential must re-run every cell or its
   wall-clock number is meaningless. *)
let run_campaign ?checkpoint opts ~jobs =
  let base = base_config opts in
  let trials = if opts.Bench_cli.full then 10 else opts.Bench_cli.trials in
  Format.printf
    "campaign: %d nodes, %d flows, %.0f s runs, %d trials x %d pause times x \
     %d protocols, %d job%s@."
    base.Sim.Config.nodes base.Sim.Config.flows base.Sim.Config.duration trials
    (List.length Sim.Config.paper_pause_times)
    (List.length Sim.Config.all_protocols)
    jobs
    (if jobs = 1 then "" else "s");
  if not opts.Bench_cli.full then
    Format.printf
      "(pause times scaled by %.3f to keep the paused-time fraction of the \
       paper's 900 s runs)@."
      (base.Sim.Config.duration /. 900.0);
  let progress =
    if opts.Bench_cli.quiet then fun _ -> () else prerr_endline
  in
  let pause_scale =
    if opts.Bench_cli.full then 1.0 else base.Sim.Config.duration /. 900.0
  in
  let policy =
    if opts.Bench_cli.fail_fast then Sim.Supervisor.fail_fast
    else
      {
        Sim.Supervisor.default with
        Sim.Supervisor.cell_timeout = opts.Bench_cli.cell_timeout;
        retries = opts.Bench_cli.retries;
      }
  in
  let started = Unix.gettimeofday () in
  let campaign =
    Sim.Experiment.run ~policy ?checkpoint
      ?sabotage:(Sim.Sabotage.from_env ()) ~jobs ~pause_scale ~base
      ~protocols:Sim.Config.all_protocols
      ~pauses:Sim.Config.paper_pause_times ~trials ~progress ()
  in
  (campaign, Unix.gettimeofday () -. started)

(* The throughput record appended to the campaign JSON. Normalised
   events/s/job is what the regression gate compares: it is stable across
   differing [-j] settings on the same machine. Since the observability
   layer the member also carries the per-worker-domain ledger (cells run,
   busy wall time, GC deltas) so the bench trajectory localises where a
   speedup — or a slowdown — comes from; the gate reads only
   [events_per_sec_per_job] and so accepts both the old and new shapes. *)
let worker_json (w : Obs.worker) =
  J.Obj
    [
      ("domain", J.Int w.Obs.w_domain);
      ("cells", J.Int w.Obs.w_cells);
      ("busy_seconds", J.Float (float_of_int w.Obs.w_busy_ns /. 1e9));
      ("minor_collections", J.Int w.Obs.w_minor_collections);
      ("major_collections", J.Int w.Obs.w_major_collections);
      ("minor_words", J.Int w.Obs.w_minor_words);
      ("promoted_words", J.Int w.Obs.w_promoted_words);
      ("major_words", J.Int w.Obs.w_major_words);
    ]

let perf_member ~jobs ~wall ~sequential_wall ~workers campaign =
  let events = campaign.Sim.Experiment.engine_events in
  let eps = if wall > 0.0 then float_of_int events /. wall else 0.0 in
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 workers in
  J.Obj
    ([
       ("jobs", J.Int jobs);
       ("wall_seconds", J.Float wall);
       ("engine_events", J.Int events);
       ("events_per_sec", J.Float eps);
       ("events_per_sec_per_job", J.Float (eps /. float_of_int jobs));
       ("workers", J.List (List.map worker_json workers));
       ( "gc",
         J.Obj
           [
             ( "minor_collections",
               J.Int (sum (fun w -> w.Obs.w_minor_collections)) );
             ( "major_collections",
               J.Int (sum (fun w -> w.Obs.w_major_collections)) );
             ("minor_words", J.Int (sum (fun w -> w.Obs.w_minor_words)));
             ("promoted_words", J.Int (sum (fun w -> w.Obs.w_promoted_words)));
             ("major_words", J.Int (sum (fun w -> w.Obs.w_major_words)));
           ] );
     ]
    @
    match sequential_wall with
    | None -> []
    | Some sw ->
        [
          ("sequential_wall_seconds", J.Float sw);
          ("speedup", J.Float (if wall > 0.0 then sw /. wall else 0.0));
        ])

let regression_gate ~baseline_path ~fresh_json =
  let fail msg =
    Format.eprintf "regression gate: %s@." msg;
    exit 2
  in
  let contents =
    try In_channel.with_open_text baseline_path In_channel.input_all
    with Sys_error e -> fail e
  in
  let baseline =
    match J.parse contents with
    | Ok j -> j
    | Error e -> fail (baseline_path ^ ": " ^ e)
  in
  let number path j =
    match J.path path j with
    | Some (J.Float x) -> x
    | Some (J.Int n) -> float_of_int n
    | _ -> fail (baseline_path ^ ": missing " ^ path)
  in
  let base_rate = number "perf.events_per_sec_per_job" baseline in
  let fresh_rate = number "perf.events_per_sec_per_job" fresh_json in
  let floor = 0.75 *. base_rate in
  Format.printf
    "regression gate: fresh %.0f events/s/job vs baseline %.0f (floor %.0f)@."
    fresh_rate base_rate floor;
  if fresh_rate < floor then begin
    Format.eprintf
      "regression gate FAILED: %.0f events/s/job is below 75%% of the \
       committed baseline %.0f@."
      fresh_rate base_rate;
    exit 3
  end

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (E7, Bechamel) *)

let run_micro_tests tests =
  let open Bechamel in
  List.iter
    (fun test ->
      let instances = [ Toolkit.Instance.monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
      let raw = Benchmark.all cfg instances test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock raw
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Format.printf "%-30s %10.1f ns/op@." name est
          | _ -> Format.printf "%-30s (no estimate)@." name)
        results)
    tests

let micro_labels () =
  let module F = Slr.Fraction in
  let module O = Slr.Ordering in
  let open Bechamel in
  let a = F.make ~num:610 ~den:987 in
  let b = F.make ~num:987 ~den:1597 in
  let oa = O.make ~sn:3 ~frac:a in
  let ob = O.make ~sn:3 ~frac:b in
  let big_lo = F.make ~num:1_000_003 ~den:2_000_003 in
  let big_hi = F.make ~num:2_000_005 ~den:3_999_999 in
  let ba = Slr.Bigfrac.of_ints ~num:610 ~den:987 in
  let bb = Slr.Bigfrac.of_ints ~num:987 ~den:1597 in
  Format.printf "@.=== micro: label-arithmetic costs (E7) ===@.";
  run_micro_tests
    [
      Test.make ~name:"Fraction.compare"
        (Staged.stage (fun () -> ignore (F.compare a b)));
      Test.make ~name:"Fraction.mediant"
        (Staged.stage (fun () -> ignore (F.mediant a b)));
      Test.make ~name:"Ordering.precedes"
        (Staged.stage (fun () -> ignore (O.precedes ob oa)));
      Test.make ~name:"New_order.compute"
        (Staged.stage (fun () ->
             ignore (Slr.New_order.compute ~current:oa ~cached:O.unassigned ~adv:ob)));
      Test.make ~name:"Farey.simplest_between"
        (Staged.stage (fun () ->
             ignore (Slr.Farey.simplest_between ~lo:big_lo ~hi:big_hi)));
      Test.make ~name:"Bigfrac.mediant"
        (Staged.stage (fun () -> ignore (Slr.Bigfrac.mediant ba bb)));
    ];
  Format.printf "worst-case mediant splits in 32 bits: %d (paper: 45)@."
    (Slr.Fraction.max_splits ())

(* Channel hot path: one broadcast frame swept over 100 static nodes on the
   paper terrain, naive full scan vs spatial grid, plus the cost of a
   forced grid rebuild. Positions are static so the measurement isolates
   the neighbour sweep from mobility lookups. *)
let micro_channel () =
  let open Bechamel in
  let nodes = 100 in
  let rng = Des.Rng.create 42L in
  let points =
    Array.init nodes (fun _ -> Wireless.Terrain.random_point Wireless.Terrain.paper rng)
  in
  let position i _time = points.(i) in
  let range = Wireless.Radio.default.Wireless.Radio.range in
  let cs_range = Wireless.Radio.default.Wireless.Radio.cs_range in
  let make_channel grid =
    let engine = Des.Engine.create () in
    let ch =
      Wireless.Channel.create ?grid engine ~nodes ~position ~range ~cs_range
    in
    (engine, ch)
  in
  let transmit_case (engine, ch) =
    let src = ref 0 in
    fun () ->
      Wireless.Channel.transmit ch ~src:!src ~duration:1e-4 ();
      Des.Engine.run_all engine;
      src := (!src + 1) mod nodes
  in
  let naive = make_channel None in
  let grid =
    make_channel (Some { Wireless.Channel.max_speed = 0.0; epoch = 1e9 })
  in
  let g =
    Wireless.Grid.create ~nodes ~position ~cell:(cs_range /. 2.0)
      ~max_speed:0.0 ~epoch:1e9
  in
  let rebuild_now = ref 0.0 in
  Format.printf "@.=== micro: channel hot path, %d nodes (E7) ===@." nodes;
  run_micro_tests
    [
      Test.make ~name:"Channel.transmit (naive)"
        (Staged.stage (transmit_case naive));
      Test.make ~name:"Channel.transmit (grid)"
        (Staged.stage (transmit_case grid));
      Test.make ~name:"Grid.rebuild"
        (Staged.stage (fun () ->
             rebuild_now := !rebuild_now +. 1.0;
             Wireless.Grid.rebuild g ~now:!rebuild_now));
    ]

(* The channel among 1000 mobile nodes (E14): the 1k preset's terrain and
   waypoint scripts (pause 0), a grid at the runner's 0.25 s epoch, and a
   clock that moves between calls, so every call looks positions up afresh
   and the grid goes stale between rebuilds as it does in a run. The gaps
   follow the 1k world's rates: a transmit every 59 us, a backoff expiry
   (one [busy_until]) every 7 us, and ~17 frames in the air. *)
let micro_channel_mobile () =
  let open Bechamel in
  let scale = Option.get (Sim.Config.scale_of_name "1k") in
  let config = Sim.Config.apply_scale scale Sim.Config.reproduction in
  let nodes = config.Sim.Config.nodes in
  let scripts =
    Wireless.Mobility.generate config.Sim.Config.mobility
      ~terrain:config.Sim.Config.terrain ~rng:(Des.Rng.create 42L) ~nodes
      ~pause:0.0 ~speed_min:config.Sim.Config.speed_min
      ~speed_max:config.Sim.Config.speed_max ~duration:900.0
  in
  let position i time = Wireless.Waypoint.position scripts.(i) time in
  let radio = config.Sim.Config.radio in
  let make_channel () =
    let engine = Des.Engine.create () in
    let ch =
      Wireless.Channel.create
        ~grid:{ Wireless.Channel.max_speed = config.Sim.Config.speed_max; epoch = 0.25 }
        engine ~nodes ~position ~range:radio.Wireless.Radio.range
        ~cs_range:radio.Wireless.Radio.cs_range
    in
    (engine, ch)
  in
  let advance engine dt =
    Des.Engine.run engine ~until:(Des.Engine.now engine +. dt)
  in
  (* consecutive senders scattered over the terrain *)
  let next src = (src + 337) mod nodes in
  let transmit_case =
    let engine, ch = make_channel () in
    let src = ref 0 in
    fun () ->
      advance engine 59e-6;
      Wireless.Channel.transmit ch ~src:!src ~duration:1e-3 ();
      src := next !src
  in
  let busy_until_case =
    let engine, ch = make_channel () in
    (* 17 frames that never end; [neighbors] rebuilds a stale grid the way
       the world's transmits do *)
    for k = 0 to 16 do
      Wireless.Channel.transmit ch ~src:(k * 59) ~duration:1e9 ()
    done;
    let node = ref 0 and built = ref 0.0 in
    fun () ->
      advance engine 7e-6;
      let now = Des.Engine.now engine in
      if now -. !built > 0.25 then begin
        ignore (Wireless.Channel.neighbors ch !node);
        built := now
      end;
      ignore (Wireless.Channel.busy_until ch !node);
      node := next !node
  in
  Format.printf "@.=== micro: channel among %d mobile nodes (E14) ===@." nodes;
  run_micro_tests
    [
      Test.make ~name:"Channel.transmit (grid)" (Staged.stage transmit_case);
      Test.make ~name:"Channel.busy_until" (Staged.stage busy_until_case);
    ]

(* Trace encoding (E13): one record into a JSONL sink on the null
   device, so the cost is the encoder plus one buffered write. A record at
   the previous record's time reuses the sink's rendering of it; a fresh
   time is printed anew. *)
let micro_trace () =
  let open Bechamel in
  let oc = open_out_bin Filename.null in
  let now = ref 37.25 in
  let t = Trace.jsonl ~clock:(fun () -> !now) oc in
  Format.printf "@.=== micro: trace encoding (E7, E13) ===@.";
  run_micro_tests
    [
      Test.make ~name:"ctl-rx, repeated t"
        (Staged.stage (fun () -> Trace.ctl_rx t ~node:17 ~kind:"rreq" ~from:42));
      Test.make ~name:"ctl-rx, fresh t"
        (Staged.stage (fun () ->
             now := !now +. 7.3e-6;
             Trace.ctl_rx t ~node:17 ~kind:"rreq" ~from:42));
      Test.make ~name:"mac-collision"
        (Staged.stage (fun () -> Trace.mac_collision t ~node:17));
      Test.make ~name:"Json.float_str"
        (Staged.stage (fun () -> ignore (J.float_str 37.2512345678)));
    ];
  Trace.close t;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Ablations (E8) *)

(* E8a: mediant vs Farey (Stern-Brocot) interpolation under random
   insertions -- the fraction-reduction direction of the paper's §VI. *)
let ablation_farey () =
  let module F = Slr.Fraction in
  Format.printf "@.=== ablation: mediant vs Farey interpolation (E8a) ===@.";
  let run ~use_farey =
    let rng = Des.Rng.create 77L in
    let labels = ref [| F.zero; F.one |] in
    let max_den = ref 1 in
    let inserted = ref 0 in
    (try
       for _ = 1 to 2000 do
         let arr = !labels in
         let i = Des.Rng.int rng (Array.length arr - 1) in
         let j = i + 1 + Des.Rng.int rng (Array.length arr - i - 1) in
         let lo = arr.(i) and hi = arr.(j) in
         if not (F.equal lo hi) then begin
           let next_label =
             if use_farey then Slr.Farey.simplest_between ~lo ~hi
             else F.mediant lo hi
           in
           match next_label with
           | None -> raise Exit
           | Some m ->
               incr inserted;
               if m.F.den > !max_den then max_den := m.F.den;
               (* keep the array sorted: m belongs somewhere in (i, j] *)
               let k = ref (i + 1) in
               while F.(arr.(!k) < m) do
                 incr k
               done;
               let out = Array.make (Array.length arr + 1) m in
               Array.blit arr 0 out 0 !k;
               out.(!k) <- m;
               Array.blit arr !k out (!k + 1) (Array.length arr - !k);
               labels := out
         end
       done
     with Exit -> ());
    (!inserted, !max_den)
  in
  let m_count, m_den = run ~use_farey:false in
  let f_count, f_den = run ~use_farey:true in
  Format.printf "mediant: %4d insertions, max denominator %d@." m_count m_den;
  Format.printf "Farey:   %4d insertions, max denominator %d@." f_count f_den;
  Format.printf
    "(the Farey walk keeps labels far smaller, deferring the sequence-number reset)@."

(* E8b: SRP's tunables under constant mobility. *)
let ablation_srp_knobs opts =
  Format.printf "@.=== ablation: SRP heuristics at pause 0 (E8b) ===@.";
  let base =
    { (base_config opts) with Sim.Config.protocol = Sim.Config.Srp; pause = 0.0 }
  in
  let run name srp =
    let r = Sim.Runner.run { base with Sim.Config.srp } in
    Format.printf "%-24s delivery %5.3f  load %7.3f  latency %6.3f  seqno %5.2f@."
      name r.Sim.Metrics.delivery_ratio r.Sim.Metrics.network_load
      r.Sim.Metrics.latency r.Sim.Metrics.avg_seqno
  in
  let d = Protocols.Srp.default_config in
  run "default (mrh=0)" d;
  run "min_reply_hops=1" { d with Protocols.Srp.min_reply_hops = 1 };
  run "min_reply_hops=2" { d with Protocols.Srp.min_reply_hops = 2 };
  run "probe_on_n=true" { d with Protocols.Srp.probe_on_n = true };
  run "no ordering lie" { d with Protocols.Srp.lie_k = 1 };
  (* §VI future work, implemented: minimal-denominator label splits *)
  let farey = { d with Protocols.Srp.labels = Slr.Label_set.Farey } in
  let r_mediant = Sim.Runner.run { base with Sim.Config.srp = d } in
  let r_farey = Sim.Runner.run { base with Sim.Config.srp = farey } in
  Format.printf
    "label growth in-protocol: mediant max denominator %d vs Farey %d@."
    r_mediant.Sim.Metrics.max_denominator r_farey.Sim.Metrics.max_denominator

(* ------------------------------------------------------------------ *)
(* Label-set showdown (E9): the four dense-set instances on identical
   constant-mobility SRP scenarios (pause 0 maximises label minting).
   Width growth, label-driven resets — and when the first one lands — are
   exactly where the instances differ, so they ride next to the standard
   delivery/load/latency triple in the JSON written to --labels-out. *)

let labels_showdown opts =
  Format.printf "@.=== label-set showdown: SRP at pause 0 (E9) ===@.";
  let base =
    { (base_config opts) with Sim.Config.protocol = Sim.Config.Srp; pause = 0.0 }
  in
  let trials = max 1 opts.Bench_cli.trials in
  Format.printf "%d trial%s x %.0f s per instance@." trials
    (if trials = 1 then "" else "s")
    base.Sim.Config.duration;
  let run_instance ?max_denom id =
    let splits = ref 0 and resets = ref 0 in
    let first_reset = ref infinity in
    let delivery = ref 0.0 and load = ref 0.0 and latency = ref 0.0 in
    let width = ref 0 and max_den = ref 0 and label_resets = ref 0 in
    for k = 0 to trials - 1 do
      let srp =
        match max_denom with
        | None -> base.Sim.Config.srp
        | Some max_denom -> { base.Sim.Config.srp with Protocols.Srp.max_denom }
      in
      let config =
        Sim.Config.with_labels
          { base with Sim.Config.seed = base.Sim.Config.seed + k; srp }
          id
      in
      let trace =
        Trace.callback
          ~clock:(fun () -> 0.0)
          (fun r ->
            match r.Trace.ev with
            | Trace.Label_split _ -> incr splits
            | Trace.Seqno_reset _ ->
                incr resets;
                if r.Trace.time < !first_reset then first_reset := r.Trace.time
            | _ -> ())
      in
      let r = Sim.Runner.run ~trace config in
      delivery := !delivery +. r.Sim.Metrics.delivery_ratio;
      load := !load +. r.Sim.Metrics.network_load;
      latency := !latency +. r.Sim.Metrics.latency;
      width := Stdlib.max !width r.Sim.Metrics.label_width_bits;
      max_den := Stdlib.max !max_den r.Sim.Metrics.max_denominator;
      label_resets := !label_resets + r.Sim.Metrics.label_resets
    done;
    let n = float_of_int trials in
    Format.printf
      "%-8s delivery %5.3f  load %7.3f  latency %6.3f  width %3d bits  \
       splits %5d  resets %3d  first reset %s@."
      (Slr.Label_set.name id) (!delivery /. n) (!load /. n) (!latency /. n)
      !width !splits !label_resets
      (if !first_reset = infinity then "never"
       else Printf.sprintf "%.1f s" !first_reset);
    J.Obj
      [
        ("labels", J.String (Slr.Label_set.name id));
        ("trials", J.Int trials);
        ("delivery", J.Float (!delivery /. n));
        ("network_load", J.Float (!load /. n));
        ("latency", J.Float (!latency /. n));
        ("max_denominator", J.Int !max_den);
        ("label_width_bits", J.Int !width);
        ("label_splits", J.Int !splits);
        ("label_resets", J.Int !label_resets);
        ("seqno_resets", J.Int !resets);
        ( "time_to_first_reset_s",
          if !first_reset = infinity then J.Null else J.Float !first_reset );
      ]
  in
  let instances = List.map run_instance Slr.Label_set.all in
  (* Reset dynamics need MAX_DENOM within reach: at the paper's 1e9 none of
     the instances exhausts in a reduced-scale horizon. A tight threshold
     makes the bounded instances pay their D-bit probe resets while the
     unbounded ones (which ignore the threshold) stay clean. *)
  let tight = 1_000 in
  Format.printf "-- with MAX_DENOM tightened to %d --@." tight;
  let instances_tight =
    List.map (run_instance ~max_denom:tight) Slr.Label_set.all
  in
  let json =
    J.Obj
      [
        ("nodes", J.Int base.Sim.Config.nodes);
        ("duration", J.Float base.Sim.Config.duration);
        ("flows", J.Int base.Sim.Config.flows);
        ("pause", J.Float base.Sim.Config.pause);
        ("trials", J.Int trials);
        ("instances", J.List instances);
        ("tight_max_denom", J.Int tight);
        ("instances_tight_max_denom", J.List instances_tight);
      ]
  in
  let oc = open_out opts.Bench_cli.labels_out in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "label-set comparison written to %s@." opts.Bench_cli.labels_out

(* ------------------------------------------------------------------ *)
(* Scale sweep (E11): engine throughput at the paper's 100 nodes and the
   1k/5k kilonode presets, one SRP run per preset at pause 0. Simulated
   horizons shrink with the preset so the sweep stays a couple of minutes
   of wall clock while every run still executes millions of events; the
   horizon is part of the committed JSON, so the regression gate always
   compares like with like. *)

(* events/s at t < traffic_start would measure an idle hello mesh; pull
   the flows in so even the shortest horizon is mostly loaded *)
let scale_traffic_start = 5.0

let scale_duration (s : Sim.Config.scale) =
  match s.Sim.Config.scale_name with
  | "100" -> 60.0
  | "1k" -> 20.0
  | _ -> 8.0

let scale_sweep opts =
  Format.printf "@.=== scale sweep: events/s at %s nodes (E11) ===@."
    (String.concat "/" Sim.Config.scale_names);
  let run_preset (s : Sim.Config.scale) =
    let config =
      Sim.Config.apply_scale s
        {
          Sim.Config.reproduction with
          duration = scale_duration s;
          traffic_start = scale_traffic_start;
          seed = 1;
          pause = 0.0;
          protocol = Sim.Config.Srp;
          channel = opts.Bench_cli.channel;
        }
    in
    let config = Sim.Config.with_labels config opts.Bench_cli.labels in
    if not opts.Bench_cli.quiet then
      Format.eprintf "scale %s: %d nodes, %d flows, %.0f s ...@."
        s.Sim.Config.scale_name config.Sim.Config.nodes
        config.Sim.Config.flows config.Sim.Config.duration;
    let started = Unix.gettimeofday () in
    let r = Sim.Runner.run config in
    let wall = Unix.gettimeofday () -. started in
    let events = r.Sim.Metrics.engine_events in
    let eps = if wall > 0.0 then float_of_int events /. wall else 0.0 in
    Format.printf
      "%-4s %5d nodes  %4d flows  %5.0f s sim  %8.1f s wall  %9d events  \
       %8.0f events/s  delivery %5.3f@."
      s.Sim.Config.scale_name config.Sim.Config.nodes config.Sim.Config.flows
      config.Sim.Config.duration wall events eps
      r.Sim.Metrics.delivery_ratio;
    J.Obj
      [
        ("scale", J.String s.Sim.Config.scale_name);
        ("nodes", J.Int config.Sim.Config.nodes);
        ("flows", J.Int config.Sim.Config.flows);
        ("terrain_width", J.Float config.Sim.Config.terrain.Wireless.Terrain.width);
        ("terrain_height", J.Float config.Sim.Config.terrain.Wireless.Terrain.height);
        ("duration", J.Float config.Sim.Config.duration);
        ("traffic_start", J.Float config.Sim.Config.traffic_start);
        ("channel", J.String (Sim.Config.channel_name config.Sim.Config.channel));
        ("engine_events", J.Int events);
        ("wall_seconds", J.Float wall);
        ("events_per_sec", J.Float eps);
        ("delivery_ratio", J.Float r.Sim.Metrics.delivery_ratio);
        ("network_load", J.Float r.Sim.Metrics.network_load);
        ("latency", J.Float r.Sim.Metrics.latency);
      ]
  in
  let sweep = List.map run_preset Sim.Config.scales in
  let json = J.Obj [ ("schema", J.String "bench-scale/1"); ("scales", J.List sweep) ] in
  let oc = open_out opts.Bench_cli.scale_out in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "scale sweep written to %s@." opts.Bench_cli.scale_out;
  json

(* per-preset twin of {!regression_gate}: every scale's fresh events/s
   must hold 75% of its committed number — a kilonode-only slowdown must
   not hide behind a healthy 100-node figure *)
let scale_regression_gate ~baseline_path ~baseline_contents ~fresh_json =
  let fail msg =
    Format.eprintf "scale regression gate: %s@." msg;
    exit 2
  in
  let baseline =
    match J.parse baseline_contents with
    | Ok j -> j
    | Error e -> fail (baseline_path ^ ": " ^ e)
  in
  let rates who j =
    match J.member "scales" j with
    | Some (J.List presets) ->
        List.filter_map
          (fun p ->
            match (J.member "scale" p, J.member "events_per_sec" p) with
            | Some (J.String name), Some (J.Float eps) -> Some (name, eps)
            | Some (J.String name), Some (J.Int eps) ->
                Some (name, float_of_int eps)
            | _ -> None)
          presets
    | _ -> fail (who ^ ": missing scales list")
  in
  let base_rates = rates baseline_path baseline in
  let fresh_rates = rates "fresh sweep" fresh_json in
  let failed =
    List.filter_map
      (fun (name, base) ->
        match List.assoc_opt name fresh_rates with
        | None -> Some (name, base, 0.0)
        | Some fresh ->
            let floor = 0.75 *. base in
            Format.printf
              "scale regression gate: %s fresh %.0f events/s vs baseline \
               %.0f (floor %.0f)@."
              name fresh base floor;
            if fresh < floor then Some (name, base, fresh) else None)
      base_rates
  in
  match failed with
  | [] -> ()
  | (name, base, fresh) :: _ ->
      Format.eprintf
        "scale regression gate FAILED: %s at %.0f events/s is below 75%% of \
         the committed baseline %.0f@."
        name fresh base;
      exit 3

(* ------------------------------------------------------------------ *)

let () =
  (* same GC posture as manet_sim, so bench figures match CLI runs *)
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 2048 * 1024; space_overhead = 200 };
  let opts =
    match Bench_cli.parse (List.tl (Array.to_list Sys.argv)) with
    | Ok opts -> opts
    | Error msg ->
        prerr_endline ("error: " ^ msg);
        prerr_endline Bench_cli.usage;
        exit 2
  in
  let t0 = Unix.gettimeofday () in
  if wants_campaign opts then begin
    if opts.Bench_cli.prof then Obs.enable ();
    let sequential_wall =
      if opts.Bench_cli.compare_sequential && opts.Bench_cli.jobs > 1 then begin
        Format.printf "sequential reference pass (-j 1):@.";
        let _, wall = run_campaign opts ~jobs:1 in
        Some wall
      end
      else None
    in
    (* the measured pass owns the ledger: spans, counters and per-domain
       GC deltas accumulated by the reference pass must not bleed in *)
    Obs.reset ();
    let campaign, wall =
      run_campaign ?checkpoint:opts.Bench_cli.resume opts
        ~jobs:opts.Bench_cli.jobs
    in
    let snapshot = Obs.snapshot () in
    let ppf = Format.std_formatter in
    let section name render =
      if wants opts name || wants opts "campaign" then begin
        Format.printf "@.";
        render ppf campaign
      end
    in
    section "table1" Sim.Report.table1;
    section "fig3" Sim.Report.fig3;
    section "fig4" Sim.Report.fig4;
    section "fig5" Sim.Report.fig5;
    section "fig6" Sim.Report.fig6;
    section "fig7" Sim.Report.fig7;
    (* machine-readable twin of the tables above, for plotting scripts;
       the perf member rides along for the regression gate but the
       campaign members themselves are byte-identical whatever -j was *)
    let json =
      match Sim.Report.campaign_json campaign with
      | J.Obj members ->
          J.Obj
            (members
            @ [
                ( "perf",
                  perf_member ~jobs:opts.Bench_cli.jobs ~wall ~sequential_wall
                    ~workers:snapshot.Obs.workers campaign );
              ]
            @
            if opts.Bench_cli.prof then
              [ ("perf_profile", Sim.Report.profile_json snapshot) ]
            else [])
      | other -> other
    in
    let oc = open_out opts.Bench_cli.out in
    output_string oc (J.to_string json);
    output_char oc '\n';
    close_out oc;
    Format.printf "@.campaign JSON written to %s@." opts.Bench_cli.out;
    if opts.Bench_cli.prof then
      Format.printf "@.%a" Sim.Report.profile snapshot;
    Option.iter
      (fun path -> Obs.Export.write_prometheus path snapshot)
      opts.Bench_cli.prof_out;
    (match sequential_wall with
    | Some sw ->
        Format.printf "parallel speedup at -j %d: %.2fx (%.1fs -> %.1fs)@."
          opts.Bench_cli.jobs
          (if wall > 0.0 then sw /. wall else 0.0)
          sw wall
    | None -> ());
    match opts.Bench_cli.baseline with
    | Some baseline_path -> regression_gate ~baseline_path ~fresh_json:json
    | None -> ()
  end;
  if wants opts "micro" then begin
    micro_labels ();
    micro_channel ();
    micro_channel_mobile ();
    micro_trace ()
  end;
  if wants opts "ablation" then begin
    ablation_farey ();
    ablation_srp_knobs opts
  end;
  if wants opts "labels" then labels_showdown opts;
  if wants opts "scale" then begin
    (* snapshot the baseline before the sweep: --scale-out may point at
       the same file, and the gate must compare against the committed
       figures, not the bytes the sweep just wrote *)
    let baseline =
      Option.map
        (fun baseline_path ->
          match
            try Ok (In_channel.with_open_text baseline_path In_channel.input_all)
            with Sys_error e -> Error e
          with
          | Ok contents -> (baseline_path, contents)
          | Error e ->
              Format.eprintf "scale regression gate: %s@." e;
              exit 2)
        opts.Bench_cli.scale_baseline
    in
    let fresh_json = scale_sweep opts in
    match baseline with
    | Some (baseline_path, baseline_contents) ->
        scale_regression_gate ~baseline_path ~baseline_contents ~fresh_json
    | None -> ()
  end;
  Format.printf "@.total wall time: %.1f s@." (Unix.gettimeofday () -. t0)
