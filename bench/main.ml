(* Benchmark harness: label-arithmetic, channel and trace
   micro-benchmarks (E7), two ablations of design choices called out in
   DESIGN.md (E8), the label-set showdown (E9), and the work ledger CI
   gates on. Table I and Figs. 3-7 come from [manet_sim campaign].

   [work] runs world 0 of each benchmark workload, a 5000-node world and
   every micro case, and records exact counts and allocated words
   ({!Work_ledger}) in BENCH_work.json; [work --check FILE] compares them
   against FILE instead and fails naming every row that moved. *)

module J = Trace.Json

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (E7, Bechamel) *)

(* [cases] builds a group's cases afresh, so [work] counts the words of
   the same calls whether or not [micro] timed them first. *)
type group = {
  key : string;  (** ledger rows are micro/KEY/CASE *)
  title : string;
  cases : unit -> (string * (unit -> unit)) list;
}

let label_cases () =
  let module F = Slr.Fraction in
  let module O = Slr.Ordering in
  let a = F.make ~num:610 ~den:987 in
  let b = F.make ~num:987 ~den:1597 in
  let oa = O.make ~sn:3 ~frac:a in
  let ob = O.make ~sn:3 ~frac:b in
  let big_lo = F.make ~num:1_000_003 ~den:2_000_003 in
  let big_hi = F.make ~num:2_000_005 ~den:3_999_999 in
  let ba = Slr.Bigfrac.of_ints ~num:610 ~den:987 in
  let bb = Slr.Bigfrac.of_ints ~num:987 ~den:1597 in
  [
    ("Fraction.compare", fun () -> ignore (F.compare a b));
    ("Fraction.mediant", fun () -> ignore (F.mediant a b));
    ("Ordering.precedes", fun () -> ignore (O.precedes ob oa));
    ( "New_order.compute",
      fun () ->
        ignore (Slr.New_order.compute ~current:oa ~cached:O.unassigned ~adv:ob) );
    ( "Farey.simplest_between",
      fun () -> ignore (Slr.Farey.simplest_between ~lo:big_lo ~hi:big_hi) );
    ("Bigfrac.mediant", fun () -> ignore (Slr.Bigfrac.mediant ba bb));
  ]

(* Channel hot path: one broadcast frame swept over 100 static nodes on the
   paper terrain, naive full scan vs spatial grid, plus the cost of a
   forced grid rebuild. Positions are static so the measurement isolates
   the neighbour sweep from mobility lookups. *)
let channel_cases () =
  let nodes = 100 in
  let rng = Des.Rng.create 42L in
  let scripts =
    Array.init nodes (fun _ ->
        Wireless.Waypoint.stationary
          (Wireless.Terrain.random_point Wireless.Terrain.paper rng))
  in
  let range = Wireless.Radio.range in
  let cs_range = Wireless.Radio.cs_range in
  let make_channel grid =
    let engine = Des.Engine.create () in
    let ch =
      Wireless.Channel.create ?grid engine ~scripts ~range ~cs_range
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
    Wireless.Grid.create
      ~positions:(Wireless.Waypoint.cache scripts)
      ~cell:(cs_range /. 2.0) ~max_speed:0.0 ~epoch:1e9
  in
  let rebuild_now = ref 0.0 in
  [
    ("Channel.transmit (naive)", transmit_case naive);
    ("Channel.transmit (grid)", transmit_case grid);
    ( "Grid.rebuild",
      fun () ->
        rebuild_now := !rebuild_now +. 1.0;
        Wireless.Grid.rebuild g ~now:!rebuild_now );
  ]

(* The channel among 1000 mobile nodes (E14): the 1k preset's terrain and
   waypoint scripts (pause 0), a grid at the runner's 0.25 s epoch, and a
   clock that moves between calls, so every call looks positions up afresh
   and the grid goes stale between rebuilds as it does in a run. The gaps
   follow the 1k world's rates: a transmit every 59 us, a backoff expiry
   (one [busy_until]) every 7 us, and ~17 frames in the air. *)
let mobile_channel_cases () =
  let scale = Option.get (Sim.Config.scale_of_name "1k") in
  let config = Sim.Config.apply_scale scale Sim.Config.reproduction in
  let nodes = config.Sim.Config.nodes in
  let scripts =
    Wireless.Mobility.generate config.Sim.Config.mobility
      ~terrain:config.Sim.Config.terrain ~rng:(Des.Rng.create 42L) ~nodes
      ~pause:0.0 ~speed_min:config.Sim.Config.speed_min
      ~speed_max:config.Sim.Config.speed_max ~duration:900.0
  in
  let make_channel () =
    let engine = Des.Engine.create () in
    let ch =
      Wireless.Channel.create
        ~grid:{ Wireless.Channel.max_speed = config.Sim.Config.speed_max; epoch = 0.25 }
        engine ~scripts ~range:Wireless.Radio.range
        ~cs_range:Wireless.Radio.cs_range
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
  [
    ("Channel.transmit (grid)", transmit_case);
    ("Channel.busy_until", busy_until_case);
  ]

(* Trace encoding (E13): one record into a JSONL sink on the null
   device, so the cost is the encoder plus one buffered write. A record at
   the previous record's time reuses the sink's rendering of it; a fresh
   time is printed anew. The sink stays open for the life of the
   process. *)
let trace_cases () =
  let now = ref 37.25 in
  let t = Trace.jsonl ~clock:(fun () -> !now) (open_out_bin Filename.null) in
  [
    ( "ctl-rx, repeated t",
      fun () -> Trace.ctl_rx t ~node:17 ~kind:"rreq" ~from:42 );
    ( "ctl-rx, fresh t",
      fun () ->
        now := !now +. 7.3e-6;
        Trace.ctl_rx t ~node:17 ~kind:"rreq" ~from:42 );
    ("mac-collision", fun () -> Trace.mac_collision t ~node:17);
    ("Json.float_str", fun () -> ignore (J.float_str 37.2512345678));
  ]

let micro_groups =
  [
    { key = "labels"; title = "label-arithmetic costs (E7)";
      cases = label_cases };
    { key = "channel-100"; title = "channel hot path, 100 nodes (E7)";
      cases = channel_cases };
    { key = "channel-1k"; title = "channel among 1000 mobile nodes (E14)";
      cases = mobile_channel_cases };
    { key = "trace"; title = "trace encoding (E7, E13)"; cases = trace_cases };
  ]

let time_cases cases =
  let open Bechamel in
  List.iter
    (fun (name, f) ->
      let instances = [ Toolkit.Instance.monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
      let test = Test.make ~name (Staged.stage f) in
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
    cases

let micro () =
  List.iter
    (fun g ->
      Format.printf "@.=== micro: %s ===@." g.title;
      time_cases (g.cases ()))
    micro_groups;
  Format.printf "worst-case mediant splits in 32 bits: %d (paper: 45)@."
    (Slr.Fraction.max_splits ())

(* ------------------------------------------------------------------ *)
(* Ablations (E8) *)

(* one SRP world of the reduced campaign at pause 0, seed 1 *)
let srp_world ~duration =
  {
    Sim.Config.reproduction with
    duration;
    seed = 1;
    protocol = Sim.Config.Srp;
    pause = 0.0;
  }

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

(* E8b: SRP's tunables under constant mobility, on a 120 s world. *)
let ablation_srp_knobs () =
  Format.printf "@.=== ablation: SRP heuristics at pause 0 (E8b) ===@.";
  let base = srp_world ~duration:120.0 in
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
   constant-mobility SRP scenarios (pause 0 maximises label minting),
   2 trials of 180 s each. Width growth, label-driven resets — and when
   the first one lands — are exactly where the instances differ, so they
   ride next to the standard delivery/load/latency triple in the JSON
   written to BENCH_labels.json. *)

let labels_out = "BENCH_labels.json"

let labels_showdown () =
  Format.printf "@.=== label-set showdown: SRP at pause 0 (E9) ===@.";
  let base = srp_world ~duration:180.0 in
  let trials = 2 in
  Format.printf "%d trials x %.0f s per instance@." trials
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
  Out_channel.with_open_text labels_out (fun oc ->
      output_string oc (J.to_string json);
      output_char oc '\n');
  Format.printf "label-set comparison written to %s@." labels_out

(* ------------------------------------------------------------------ *)
(* The work ledger: world 0 of workload seed 1 of every benchmark
   workload, exactly as Bench_suite.Workloads builds it, plus the 5000-node
   SRP world the scale sweep ran; then each workload's set-up-only build;
   then every micro case. *)

module W = Bench_suite.Workloads

let work_out = "BENCH_work.json"

(* calls per micro case; words per call is their average *)
let micro_calls = 10_000

let srp_5k =
  W.Run
    {
      config =
        Sim.Config.apply_scale
          (Option.get (Sim.Config.scale_of_name "5k"))
          { (srp_world ~duration:8.0) with traffic_start = 5.0 };
      jsonl = false;
    }

let workload_jobs () =
  let seed = W.world_seed ~seed:1 0 in
  List.map (fun (w : W.t) -> (w.name, w.job ~seed ~smoke:false)) W.all

(* the engine events of one job, run as the benchmark's child runs it *)
let run_job = function
  | W.Run { config; jsonl } ->
      let trace =
        if jsonl then
          Trace.jsonl ~clock:(fun () -> 0.0) (open_out_bin Filename.null)
        else Trace.null
      in
      (Sim.Runner.run ~trace config).Sim.Metrics.engine_events
  | W.Campaign { base; protocols; pauses; pause_scale; jobs } ->
      (Sim.Experiment.run ~policy:Sim.Supervisor.default ~jobs ~pause_scale
         ~base ~protocols ~pauses ~trials:1 ~progress:ignore ())
        .Sim.Experiment.engine_events

(* [Gc.quick_stat] counts each domain's minor words as of that domain's
   last minor collection. A minor collection, which every running domain
   joins, at each end makes the delta exact; a joined domain's count is
   final. *)
let minor_words_of f =
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_words in
  let result = f () in
  Gc.minor ();
  (result, (Gc.quick_stat ()).Gc.minor_words -. before)

let world_row (name, job) =
  Obs.reset ();
  let started = Unix.gettimeofday () in
  let events, words = minor_words_of (fun () -> run_job job) in
  let row =
    {
      Work_ledger.name;
      counts = ("des.events", events) :: (Obs.snapshot ()).Obs.counters;
      words;
    }
  in
  Format.printf "%-16s %10d events %12.0f minor words  (%.1f s)@." name events
    row.words
    (Unix.gettimeofday () -. started);
  row

(* A workload's set-up-only build, as Bench_suite.Probe times it for
   [setup_s]: the world itself, or a campaign's first cell. Its wall time
   is the benchmark's noisiest metric; its allocation repeats exactly. *)
let setup_row (name, job) =
  let config =
    match job with
    | W.Run { config; _ } -> config
    | W.Campaign { base; protocols; pauses; pause_scale; _ } ->
        {
          base with
          Sim.Config.protocol = List.hd protocols;
          pause = List.hd pauses *. pause_scale;
        }
  in
  let _, words =
    minor_words_of (fun () -> Bench_suite.Probe.setup_only config)
  in
  let name = "setup/" ^ name in
  Format.printf "%-20s %12.0f minor words@." name words;
  { Work_ledger.name; counts = []; words }

let micro_row g (case, f) =
  let before = Gc.minor_words () in
  for _ = 1 to micro_calls do
    f ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int micro_calls in
  let name = Printf.sprintf "micro/%s/%s" g.key case in
  Format.printf "%-44s %8.2f minor words per call@." name words;
  { Work_ledger.name; counts = []; words }

let read_ledger path =
  match
    Work_ledger.of_string (In_channel.with_open_text path In_channel.input_all)
  with
  | Ok ledger -> ledger
  | Error e ->
      Format.eprintf "work: %s: %s@." path e;
      exit 1

let work ~check =
  (* a bad ledger fails before the worlds run *)
  let committed = Option.map (fun path -> (path, read_ledger path)) check in
  Format.printf "@.=== work: exact counts and minor words ===@.";
  let worlds =
    List.map world_row (workload_jobs () @ [ ("srp-5k", srp_5k) ])
  in
  let setups = List.map setup_row (workload_jobs ()) in
  let micro =
    List.concat_map (fun g -> List.map (micro_row g) (g.cases ())) micro_groups
  in
  let fresh =
    { Work_ledger.ocaml = Sys.ocaml_version; rows = worlds @ setups @ micro }
  in
  match committed with
  | Some (path, committed) -> (
      match Work_ledger.check ~committed ~fresh with
      | [] ->
          Format.printf "work: all %d rows match %s@."
            (List.length committed.Work_ledger.rows)
            path
      | moved ->
          List.iter (Format.eprintf "work: %s@.") moved;
          Format.eprintf
            "work: %d change(s) against %s; if every one is intended, \
             regenerate the ledger with `%s` and commit it@."
            (List.length moved) path Work_ledger.regenerate;
          exit 1)
  | None ->
      Out_channel.with_open_text work_out (fun oc ->
          output_string oc (Work_ledger.to_string fresh));
      Format.printf "work ledger written to %s@." work_out

(* ------------------------------------------------------------------ *)

let sections = [ "micro"; "ablation"; "labels"; "work" ]

let main chosen check =
  let wants s = chosen = [] || List.mem s chosen in
  if check <> None && not (wants "work") then
    `Error (true, "--check compares the work section's ledger; run work too")
  else begin
    (* same GC posture as manet_sim, so bench figures match CLI runs *)
    Gc.set
      { (Gc.get ()) with Gc.minor_heap_size = 2048 * 1024; space_overhead = 200 };
    let t0 = Unix.gettimeofday () in
    if wants "micro" then micro ();
    if wants "ablation" then begin
      ablation_farey ();
      ablation_srp_knobs ()
    end;
    if wants "labels" then labels_showdown ();
    if wants "work" then work ~check;
    Format.printf "@.total wall time: %.1f s@." (Unix.gettimeofday () -. t0);
    `Ok ()
  end

let () =
  let open Cmdliner in
  let chosen =
    Arg.(
      value
      & pos_all (enum (List.map (fun s -> (s, s)) sections)) []
      & info [] ~docv:"SECTION"
          ~doc:
            "Sections to run, in the order micro, ablation, labels, work \
             whatever order they are given in; all four when none is given.")
  in
  let check =
    Arg.(
      value
      & opt (some file) None
      & info [ "check" ] ~docv:"FILE"
          ~doc:
            "Compare the work section's ledger against $(docv) instead of \
             writing BENCH_work.json, and exit 1 naming every row that \
             moved: a count that differs, minor words outside a 1% band \
             either way, or another OCaml version.")
  in
  let doc =
    "Micro-benchmarks, ablations, the label-set showdown and the work ledger."
  in
  let term = Term.(ret (const main $ chosen $ check)) in
  exit (Cmd.eval (Cmd.v (Cmd.info "main" ~doc) term))
