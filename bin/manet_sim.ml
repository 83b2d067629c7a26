(* manet_sim — run single simulations, campaigns, or the SRP loop-freedom
   verifier from the command line. *)

open Cmdliner

let protocol_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "srp" -> Ok Sim.Config.Srp
    | "ldr" -> Ok Sim.Config.Ldr
    | "aodv" -> Ok Sim.Config.Aodv
    | "dsr" -> Ok Sim.Config.Dsr
    | "olsr" -> Ok Sim.Config.Olsr
    | _ -> Error (`Msg (Printf.sprintf "unknown protocol %S" s))
  in
  let print ppf p = Format.pp_print_string ppf (Sim.Config.protocol_name p) in
  Arg.conv (parse, print)

let labels_conv =
  let parse s =
    match Slr.Label_set.of_name s with
    | Some id -> Ok id
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown label set %S (mediant|farey|bigfrac|lex)"
                s))
  in
  let print ppf id = Format.pp_print_string ppf (Slr.Label_set.name id) in
  Arg.conv (parse, print)

let labels_term =
  Arg.(
    value
    & opt labels_conv Slr.Label_set.default
    & info [ "labels" ] ~docv:"SET"
        ~doc:
          "Dense label set SRP mints feasible distances from: $(b,mediant) \
           (the paper's bounded 32-bit fractions, default), $(b,farey) \
           (minimal-denominator splits), $(b,bigfrac) (unbounded fractions \
           — wider labels, never resets), or $(b,lex) (lexicographic byte \
           strings). Other protocols ignore it.")

let channel_conv =
  let parse s =
    match Sim.Config.channel_of_name s with
    | Some c -> Ok c
    | None -> Error (`Msg (Printf.sprintf "unknown channel %S (grid|naive)" s))
  in
  let print ppf c = Format.pp_print_string ppf (Sim.Config.channel_name c) in
  Arg.conv (parse, print)

let channel_term =
  Arg.(
    value
    & opt channel_conv Sim.Config.Grid
    & info [ "channel" ] ~docv:"PATH"
        ~doc:
          "Neighbour-sweep implementation: $(b,grid) (spatial hash, the \
           default) or $(b,naive) (the O(n²) full scan kept as the \
           property-tested oracle). The two are observationally identical; \
           only wall-clock speed differs.")

(* --scenario and --scale stay plain strings: unknown names must exit 2
   with the registry listing (an Arg.conv parse failure would exit 124). *)
let scenario_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:
          "Named workload: one name bundles a mobility model, a traffic \
           model and an optional fault or adversary plan into a seeded, \
           reproducible scenario. $(b,default) is byte-identical to \
           running with no scenario at all. An unknown name lists the \
           registry and exits 2.")

let scale_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "scale" ] ~docv:"PRESET"
        ~doc:
          "Scale preset: node count, terrain and flow count at the paper's \
           node density ($(b,100), $(b,1k) or $(b,5k)). Overrides --nodes \
           and --flows; composes with --scenario and --labels. An unknown \
           preset lists the choices and exits 2.")

let resolve_scale cmd name =
  match Sim.Config.scale_of_name name with
  | Some s -> s
  | None ->
      Printf.eprintf "%s: unknown scale %S\nscale presets: %s\n" cmd name
        (String.concat ", " Sim.Config.scale_names);
      exit 2

let apply_scale cmd scale config =
  match scale with
  | None -> config
  | Some name -> Sim.Config.apply_scale (resolve_scale cmd name) config

let resolve_scenario cmd name =
  match Sim.Scenario.find name with
  | Some sc -> sc
  | None ->
      Printf.eprintf
        "%s: unknown scenario %S\nregistered scenarios: %s\n" cmd name
        (String.concat ", " Sim.Scenario.names);
      exit 2

(* workload-only commands (check, fuzz) reject the adversarial entry *)
let workload_scenario cmd name =
  let sc = resolve_scenario cmd name in
  if Sim.Scenario.is_adversarial sc then begin
    Printf.eprintf
      "%s: scenario %S is adversarial; use `run --scenario` or `campaign \
       --scenario` to replay it\n"
      cmd sc.Sim.Scenario.name;
    exit 2
  end;
  sc

(* --faults switches the whole subsystem on; the knobs below tune it and
   are inert without it. Defaults mirror Faults.Spec.default. *)
let faults_term =
  let open Term.Syntax in
  let d = Faults.Spec.default in
  let+ enabled =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Enable fault injection: link flaps, node crashes, partitions \
             and packet-loss bursts on a dedicated RNG substream.")
  and+ flap_rate =
    Arg.(
      value
      & opt float d.Faults.Spec.flap_rate
      & info [ "flap-rate" ] ~doc:"Link flaps per second, network-wide.")
  and+ flap_down =
    Arg.(
      value
      & opt float d.Faults.Spec.flap_down_mean
      & info [ "flap-down" ] ~doc:"Mean seconds a flapped link stays down.")
  and+ crashes =
    Arg.(
      value
      & opt int d.Faults.Spec.crashes
      & info [ "crashes" ] ~doc:"Node crashes over the run.")
  and+ crash_down =
    Arg.(
      value
      & opt float d.Faults.Spec.crash_down_mean
      & info [ "crash-down" ] ~doc:"Mean seconds a crashed node stays down.")
  and+ partitions =
    Arg.(
      value
      & opt int d.Faults.Spec.partitions
      & info [ "partitions" ] ~doc:"Network partitions over the run.")
  and+ partition_down =
    Arg.(
      value
      & opt float d.Faults.Spec.partition_mean
      & info [ "partition-down" ] ~doc:"Mean seconds a partition lasts.")
  and+ burst_rate =
    Arg.(
      value
      & opt float d.Faults.Spec.burst_rate
      & info [ "burst-rate" ] ~doc:"Packet-loss bursts per second.")
  and+ burst_down =
    Arg.(
      value
      & opt float d.Faults.Spec.burst_mean
      & info [ "burst-down" ] ~doc:"Mean seconds a loss burst lasts.")
  and+ burst_drop =
    Arg.(
      value
      & opt float d.Faults.Spec.burst_drop_p
      & info [ "burst-drop" ]
          ~doc:"Per-frame drop probability during a burst.")
  in
  if not enabled then Faults.Spec.none
  else
    {
      Faults.Spec.flap_rate;
      flap_down_mean = flap_down;
      crashes;
      crash_down_mean = crash_down;
      partitions;
      partition_mean = partition_down;
      burst_rate;
      burst_mean = burst_down;
      burst_drop_p = burst_drop;
      extra = [];
    }

(* A number outside its range is a usage error (exit 124), not an empty
   world or an exception deep inside a run. *)
let checked conv ok what =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%s is not %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let int_from n =
  checked Arg.int (fun v -> v >= n) (Printf.sprintf "an integer >= %d" n)

let positive = checked Arg.float (fun v -> v > 0.0) "a number > 0"

let config_term =
  let open Term.Syntax in
  let+ nodes =
    Arg.(
      value & opt (int_from 2) 100 & info [ "nodes" ] ~doc:"Number of nodes.")
  and+ flows =
    Arg.(
      value
      & opt int Sim.Config.reproduction.Sim.Config.flows
      & info [ "flows" ] ~doc:"Concurrent CBR flows (paper: 30).")
  and+ pause =
    Arg.(
      value & opt float 0.0
      & info [ "pause" ] ~doc:"Random-waypoint pause time in seconds.")
  and+ duration =
    Arg.(
      value & opt positive 120.0
      & info [ "duration" ] ~doc:"Simulated seconds (paper: 900).")
  and+ seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Trial seed.")
  and+ packet_rate =
    Arg.(
      value & opt positive 4.0
      & info [ "rate" ] ~doc:"Packets per second per flow.")
  and+ faults = faults_term
  and+ labels = labels_term
  and+ channel = channel_term
  in
  Sim.Config.with_labels
    {
      Sim.Config.reproduction with
      nodes;
      flows;
      pause;
      duration;
      seed;
      packet_rate;
      faults;
      channel;
    }
    labels

let jobs_term ~doc =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* --prof / --prof-out: wall-clock profiling of the real hot paths. The
   snapshot is taken after the work completes; simulated behaviour is
   untouched (spans are wall-clock side-state outside the DES), so a
   profiled run computes the exact same results. *)
let prof_term =
  let open Term.Syntax in
  let+ prof =
    Arg.(
      value & flag
      & info [ "prof" ]
          ~doc:
            "Profile the run: wall-clock span timers on the hot paths \
             (event dispatch by kind, channel transmit, grid rebuilds, \
             protocol handlers, trace writes) plus per-worker-domain GC \
             deltas. Appends a perf_profile member to --json output and a \
             Profile section to the report. Simulated results are \
             unchanged.")
  and+ prof_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "prof-out" ] ~docv:"FILE"
          ~doc:
            "Write the profile as Prometheus text exposition to $(docv) \
             (implies --prof).")
  in
  (prof || prof_out <> None, prof_out)

(* append the profile to the envelope, print the human section, export
   Prometheus text — the one place every profiled command funnels through *)
let emit_profile snapshot ~prof_out envelope =
  Format.printf "@.%a" Sim.Report.profile snapshot;
  Option.iter
    (fun path -> Obs.Export.write_prometheus path snapshot)
    prof_out;
  Option.map (fun j -> Sim.Report.add_profile j snapshot) envelope

let write_json path json =
  let oc = open_out path in
  output_string oc (Trace.Json.to_string json);
  output_char oc '\n';
  close_out oc

let run_cmd =
  let doc = "Run one simulation and print the paper's metrics." in
  let term =
    let open Term.Syntax in
    let+ config = config_term
    and+ protocol =
      Arg.(
        value
        & opt protocol_conv Sim.Config.Srp
        & info [ "protocol"; "p" ] ~doc:"Routing protocol.")
    and+ trace_file =
      Arg.(
        value
        & opt (some string) None
        & info [ "trace-file" ]
            ~doc:
              "Stream the structured event trace (packet lifecycle, routing \
               control, MAC, faults) to $(docv) as JSONL, one record per \
               line. Same seed, same bytes.")
    and+ sample_every =
      Arg.(
        value & opt float 0.0
        & info [ "sample-every" ]
            ~doc:
              "With --trace-file: also sample whole-network gauges (route \
               tables, pending buffers, MAC queues, engine liveness) every \
               $(docv) simulated seconds.")
    and+ json_file =
      Arg.(
        value
        & opt (some string) None
        & info [ "json" ]
            ~doc:"Write the run's config and metrics to $(docv) as JSON.")
    and+ jobs =
      jobs_term
        ~doc:
          "Worker domains. A single run is one sequential event loop, so \
           this is accepted for interface symmetry with $(b,campaign) and \
           $(b,fuzz) but values above 1 change nothing here."
    and+ prof, prof_out = prof_term
    and+ scenario = scenario_term
    and+ scale = scale_term
    in
    ignore (jobs : int);
    if prof then Obs.enable ();
    let config = { config with Sim.Config.protocol } in
    let config = apply_scale "run" scale config in
    match Option.map (resolve_scenario "run") scenario with
    | Some sc when Sim.Scenario.is_adversarial sc ->
        (* replay the van Glabbeek attack for this protocol only: the
           verdict is the output; exit 1 when the monitor saw a loop *)
        let v = Sim.Scenario.run_adversarial ~protocol in
        Format.printf "scenario %s: %s@.%a@." sc.Sim.Scenario.name
          sc.Sim.Scenario.summary Sim.Scenario.pp_verdict v;
        if Sim.Scenario.loop_detected v then exit 1
    | sc ->
    let config =
      match sc with Some sc -> Sim.Scenario.apply sc config | None -> config
    in
    let trace_oc = Option.map open_out trace_file in
    let trace =
      match trace_oc with
      | Some oc -> Trace.jsonl ~clock:(fun () -> 0.0) oc
      | None -> Trace.null
    in
    let started = Unix.gettimeofday () in
    let result =
      (* close the trace channel even when the run aborts, so a crashed
         run still leaves a valid JSONL prefix on disk *)
      Fun.protect
        ~finally:(fun () -> Option.iter close_out trace_oc)
        (fun () -> Sim.Runner.run ~trace ~sample_every config)
    in
    let wall = Unix.gettimeofday () -. started in
    Format.printf "%a" Sim.Report.run result;
    (* engine stats go to stderr: stdout stays byte-identical across
       traced/untraced runs of the same seed *)
    Format.eprintf "%s@."
      (Obs.Export.engine_line ~events:result.Sim.Metrics.engine_events ~wall);
    let envelope =
      match json_file with
      | Some _ -> Some (Sim.Report.run_json config result)
      | None -> None
    in
    let envelope =
      if prof then emit_profile (Obs.snapshot ()) ~prof_out envelope
      else envelope
    in
    Option.iter
      (fun path -> write_json path (Option.get envelope))
      json_file
  in
  Cmd.v (Cmd.info "run" ~doc) term

let campaign_cmd =
  let doc =
    "Run the full campaign (protocols x pause times x trials) and print \
     Table I and Figures 3-7."
  in
  let term =
    let open Term.Syntax in
    let+ config = config_term
    and+ trials =
      Arg.(
        value & opt (int_from 1) 3 & info [ "trials" ] ~doc:"Trials per point.")
    and+ quiet =
      Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress progress.")
    and+ json_file =
      Arg.(
        value
        & opt (some string) None
        & info [ "json" ]
            ~doc:
              "Write the campaign (per-cell metric summaries over the \
               protocol and pause axes) to $(docv) as JSON.")
    and+ jobs =
      jobs_term
        ~doc:
          "Run (protocol, pause, trial) cells on $(docv) worker domains. \
           Per-cell results are merged in canonical order, so the report \
           and --json output are byte-identical to -j 1; only stderr \
           progress interleaving varies."
    and+ resume =
      Arg.(
        value
        & opt (some string) None
        & info [ "resume" ] ~docv:"FILE"
            ~doc:
              "Journal every resolved cell to $(docv) (append-only JSONL) \
               and, when the file already holds cells of this exact \
               campaign, restore them instead of re-running. A resumed \
               campaign's report and --json output are byte-identical to a \
               straight-through run.")
    and+ cell_timeout =
      Arg.(
        value & opt float 0.0
        & info [ "cell-timeout" ] ~docv:"SEC"
            ~doc:
              "Wall-clock budget per cell attempt; a cell past its budget \
               is aborted (cooperatively, at the next engine watchdog \
               check) and handled like a crash. 0 disables the timeout.")
    and+ retries =
      Arg.(
        value & opt int 1
        & info [ "retries" ] ~docv:"N"
            ~doc:
              "Re-run a crashed or timed-out cell up to $(docv) more times \
               (deterministic exponential backoff) before quarantining it.")
    and+ fail_fast =
      Arg.(
        value & flag
        & info [ "fail-fast" ]
            ~doc:
              "Abort the whole campaign on the first cell failure instead \
               of retrying and quarantining.")
    and+ sabotage =
      Arg.(
        value
        & opt (some string) None
        & info [ "sabotage" ] ~docv:"SPEC"
            ~doc:
              "Deterministic failure injection for testing the supervisor: \
               MODE:PROTOCOL:PAUSE:TRIAL[@FAILS] with MODE crash or hang \
               (e.g. crash:AODV:0:1, or crash:SRP:0:0@1 to fail only the \
               first attempt). Also read from MANET_SABOTAGE.")
    and+ prof, prof_out = prof_term
    and+ scenario = scenario_term
    and+ scale = scale_term
    in
    if prof then Obs.enable ();
    let config = apply_scale "campaign" scale config in
    match Option.map (resolve_scenario "campaign") scenario with
    | Some sc when Sim.Scenario.is_adversarial sc ->
        (* adversarial campaign: replay the attack against every protocol
           and print one verdict per line. The suite fails (exit 1) only
           when SRP — provably loop-free — is caught looping. *)
        Format.printf "scenario %s: %s@." sc.Sim.Scenario.name
          sc.Sim.Scenario.summary;
        let verdicts = Sim.Scenario.run_adversarial_all () in
        List.iter
          (fun v -> Format.printf "%a@." Sim.Scenario.pp_verdict v)
          verdicts;
        let srp_looped =
          List.exists
            (fun v ->
              v.Sim.Scenario.vprotocol = Sim.Config.Srp
              && Sim.Scenario.loop_detected v)
            verdicts
        in
        if srp_looped then exit 1
    | sc ->
    let config =
      match sc with Some sc -> Sim.Scenario.apply sc config | None -> config
    in
    (* live meter only on an interactive stderr: piped/redirected runs
       (CI byte-comparisons included) see exactly the historical stream *)
    let meter =
      if (not quiet) && Unix.isatty Unix.stderr then
        Some
          (Obs.Progress.create
             ~total:
               (List.length Sim.Config.all_protocols
               * List.length Sim.Config.paper_pause_times
               * trials)
             ())
      else None
    in
    let progress =
      if quiet then fun _ -> ()
      else
        match meter with
        | Some m -> Obs.Progress.interject m
        | None -> prerr_endline
    in
    let pause_scale = Stdlib.min 1.0 (config.Sim.Config.duration /. 900.0) in
    let policy =
      if fail_fast then Sim.Supervisor.fail_fast
      else
        {
          Sim.Supervisor.default with
          Sim.Supervisor.cell_timeout;
          retries = Stdlib.max 0 retries;
        }
    in
    let sabotage =
      match sabotage with
      | Some spec -> (
          match Sim.Sabotage.of_string spec with
          | Ok t -> Some t
          | Error m ->
              prerr_endline ("campaign: " ^ m);
              exit 2)
      | None -> Sim.Sabotage.from_env ()
    in
    match
      Fun.protect
        ~finally:(fun () -> Option.iter Obs.Progress.finish meter)
        (fun () ->
          Sim.Experiment.run ~policy ?checkpoint:resume ?sabotage ?meter
            ~jobs ~pause_scale ~base:config
            ~protocols:Sim.Config.all_protocols
            ~pauses:Sim.Config.paper_pause_times ~trials ~progress ())
    with
    | campaign ->
        Format.printf "%a@." Sim.Report.all campaign;
        let envelope =
          match json_file with
          | Some _ -> Some (Sim.Report.campaign_json campaign)
          | None -> None
        in
        let envelope =
          if prof then emit_profile (Obs.snapshot ()) ~prof_out envelope
          else envelope
        in
        Option.iter
          (fun path -> write_json path (Option.get envelope))
          json_file
    | exception Sim.Pool.Cell_error { cell; exn } ->
        Format.eprintf "campaign: aborted by cell %s: %s@." cell
          (Printexc.to_string exn);
        exit 1
    | exception Sim.Experiment.Resume_error m ->
        Format.eprintf "campaign: %s@." m;
        exit 2
  in
  Cmd.v (Cmd.info "campaign" ~doc) term

let check_cmd =
  let doc =
    "Run SRP under the loop-freedom verifier (Theorem 3): every successor \
     edge must descend in label order and every successor graph must stay \
     acyclic."
  in
  let term =
    let open Term.Syntax in
    let+ config = config_term
    and+ interval =
      Arg.(
        value & opt float 1.0
        & info [ "interval" ] ~doc:"Seconds between invariant sweeps.")
    and+ scenario = scenario_term
    and+ scale = scale_term
    in
    let config = apply_scale "check" scale config in
    let config =
      match Option.map (workload_scenario "check") scenario with
      | Some sc -> Sim.Scenario.apply sc config
      | None -> config
    in
    (* faulted runs use the online monitor: per-mutation checks against the
       stored successor orderings, robust to post-crash label regression *)
    let faulted = not (Faults.Spec.is_none config.Sim.Config.faults) in
    let verify =
      if faulted then Sim.Loopcheck.run_online else Sim.Loopcheck.run
    in
    match verify { config with protocol = Sim.Config.Srp } ~interval with
    | Ok (result, checks, edges) ->
        Format.printf
          "loop-freedom verified (%s): %d %s, %d successor edges checked@.%a"
          (if faulted then "online monitor" else "periodic sweeps")
          checks
          (if faulted then "checks" else "sweeps")
          edges Sim.Report.run result
    | Error message ->
        Format.printf "VIOLATION: %s@." message;
        exit 1
  in
  Cmd.v (Cmd.info "check" ~doc) term

(* --------------------------------------------------------------------- *)
(* trace: flight recorder and JSON validator over emitted files           *)

let read_lines path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | line -> loop (if String.trim line = "" then acc else line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  loop []

let parse_follow s =
  match String.index_opt s ':' with
  | None -> (
      match int_of_string_opt s with
      | Some flow -> Ok (flow, None)
      | None -> Error (`Msg (Printf.sprintf "bad flow spec %S" s)))
  | Some i -> (
      let flow = String.sub s 0 i in
      let seq = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt flow, int_of_string_opt seq) with
      | Some flow, Some seq -> Ok (flow, Some seq)
      | _ -> Error (`Msg (Printf.sprintf "bad flow spec %S" s)))

let follow_conv =
  Arg.conv
    ( parse_follow,
      fun ppf (flow, seq) ->
        match seq with
        | None -> Format.fprintf ppf "%d" flow
        | Some s -> Format.fprintf ppf "%d:%d" flow s )

(* A record is on the packet's flight path when its flow (and, if given,
   seq) members match. Gauge/fault/MAC records carry no flow and never
   match. *)
let record_matches ~flow ~seq json =
  let module J = Trace.Json in
  let int_member name =
    match J.member name json with Some (J.Int i) -> Some i | _ -> None
  in
  int_member "flow" = Some flow
  && match seq with None -> true | Some s -> int_member "seq" = Some s

let pp_trace_record ppf json =
  let module J = Trace.Json in
  let num = function
    | J.Int i -> string_of_int i
    | J.Float f -> J.float_str f
    | J.String s -> s
    | j -> J.to_string j
  in
  let t = match J.member "t" json with Some j -> num j | None -> "?" in
  let node = match J.member "node" json with Some j -> num j | None -> "?" in
  let ev = match J.member "ev" json with Some j -> num j | None -> "?" in
  Format.fprintf ppf "%10s  node %4s  %-13s" t node ev;
  (match json with
  | J.Obj members ->
      List.iter
        (fun (k, v) ->
          if k <> "t" && k <> "node" && k <> "ev" then
            Format.fprintf ppf " %s=%s" k (num v))
        members
  | _ -> ());
  Format.fprintf ppf "@."

let trace_cmd =
  let doc =
    "Inspect emitted telemetry: replay one packet's hop-by-hop path from a \
     JSONL trace (--follow), or validate that a JSON/JSONL file parses and \
     holds required keys (--validate, for CI)."
  in
  let term =
    let open Term.Syntax in
    let+ file =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"FILE" ~doc:"Trace (JSONL) or JSON file to read.")
    and+ follow =
      Arg.(
        value
        & opt (some follow_conv) None
        & info [ "follow" ] ~docv:"FLOW[:SEQ]"
            ~doc:
              "Flight recorder: print every record of the given flow (and \
               packet, when :SEQ is given) in emission order — originate, \
               MAC enqueue/tx/rx, forwards, and the final deliver or drop.")
    and+ validate =
      Arg.(
        value & flag
        & info [ "validate" ]
            ~doc:
              "Parse $(i,FILE) (JSONL when it has multiple lines, plain \
               JSON otherwise) and fail loudly on any malformed record.")
    and+ require =
      Arg.(
        value & opt_all string []
        & info [ "require" ] ~docv:"PATH"
            ~doc:
              "With --validate: dot-separated member path that must be \
               present (e.g. result.delivery_ratio). Repeatable.")
    in
    let lines = read_lines file in
    let parsed =
      List.mapi
        (fun i line ->
          match Trace.Json.parse line with
          | Ok json -> (i + 1, json)
          | Error msg ->
              Format.eprintf "%s:%d: %s@." file (i + 1) msg;
              exit 1)
        lines
    in
    match follow with
    | Some (flow, seq) ->
        let hits =
          List.filter (fun (_, j) -> record_matches ~flow ~seq j) parsed
        in
        List.iter (fun (_, j) -> pp_trace_record Format.std_formatter j) hits;
        Format.printf "%d records@." (List.length hits)
    | None ->
        if not validate then
          Format.printf "%d records parsed (use --follow or --validate)@."
            (List.length parsed)
        else begin
          List.iter
            (fun path ->
              let found =
                List.for_all
                  (fun (_, j) -> Trace.Json.path path j <> None)
                  parsed
              in
              if parsed = [] || not found then begin
                Format.eprintf "%s: required path %S missing@." file path;
                exit 1
              end)
            require;
          Format.printf "%s: OK (%d records)@." file (List.length parsed)
        end
  in
  Cmd.v (Cmd.info "trace" ~doc) term

(* --------------------------------------------------------------------- *)
(* fuzz: the property-based suite over label arithmetic, the abstract SLR
   executor, and whole simulations against the reference model            *)

let fuzz_catalogue = Check.Props.all @ Sim.Fuzz.props

let fuzz_cmd =
  let doc =
    "Run the property-based test suite: randomized label arithmetic, \
     Algorithm 1, abstract SLR executions, and full SRP simulations checked \
     against a reference model of the paper's ordering semantics. Every \
     failure is shrunk to a minimal counterexample and printed with the \
     exact invocation that replays it."
  in
  let term =
    let open Term.Syntax in
    let+ max_cases =
      Arg.(
        value & opt int 100
        & info [ "max-cases" ]
            ~doc:
              "Case budget per property; expensive properties (whole \
               simulations) run $(docv) divided by their declared cost.")
    and+ seed =
      Arg.(
        value & opt int 42
        & info [ "seed" ] ~doc:"Root seed for the whole suite.")
    and+ prop =
      Arg.(
        value
        & opt (some string) None
        & info [ "prop" ] ~docv:"NAME"
            ~doc:"Run only the named property (see --list).")
    and+ replay =
      Arg.(
        value
        & opt (some int) None
        & info [ "replay" ] ~docv:"CASE"
            ~doc:
              "Re-run exactly one case index, as printed by a failure \
               report. Requires --prop and the report's --seed.")
    and+ list_props =
      Arg.(
        value & flag
        & info [ "list" ] ~doc:"List the property catalogue and exit.")
    and+ jobs =
      jobs_term
        ~doc:
          "Run catalogue properties on $(docv) worker domains. Every case \
           draws from its own prop#case substream, so outcomes and reports \
           are identical to -j 1."
    and+ labels =
      Arg.(
        value
        & opt (some labels_conv) None
        & info [ "labels" ] ~docv:"SET"
            ~doc:
              "Pin every simulation-level property to this label-set \
               instance (mediant|farey|bigfrac|lex) instead of the default \
               catalogue, which fuzzes the mediant set plus one \
               model-agreement cell per other instance.")
    and+ scenario = scenario_term
    in
    let scenario = Option.map (workload_scenario "fuzz") scenario in
    let fuzz_catalogue =
      match (scenario, labels) with
      | None, None -> fuzz_catalogue
      | None, Some id -> Check.Props.all @ Sim.Fuzz.props_for id
      | Some sc, _ ->
          (* pin the simulation-level cells to the scenario's mobility and
             traffic models (and --labels, when also given) *)
          let w =
            match sc.Sim.Scenario.body with
            | Sim.Scenario.Workload w -> w
            | Sim.Scenario.Adversarial -> assert false
          in
          Check.Props.all
          @ Sim.Fuzz.props_pinned ?labels
              ~mobility:w.Sim.Scenario.mobility
              ~traffic:w.Sim.Scenario.traffic ()
    in
    if list_props then
      List.iter
        (fun (Check.Runner.Packed c) ->
          Printf.printf "%-34s cost %d\n" c.Check.Runner.name
            c.Check.Runner.cost)
        fuzz_catalogue
    else begin
      (match (replay, prop) with
      | Some _, None ->
          prerr_endline "fuzz: --replay requires --prop";
          exit 2
      | _ -> ());
      (match prop with
      | Some name
        when not
               (List.exists
                  (fun (Check.Runner.Packed c) -> c.Check.Runner.name = name)
                  fuzz_catalogue) ->
          Printf.eprintf "fuzz: unknown property %S (see --list)\n" name;
          exit 2
      | _ -> ());
      let map f cells = Array.to_list (Sim.Pool.map ~jobs f (Array.of_list cells)) in
      let outcomes =
        Check.Runner.run_suite ~map ~seed ~max_cases ?only:prop ?start:replay
          fuzz_catalogue
      in
      List.iter
        (fun (name, outcome) ->
          print_endline (Check.Runner.report outcome ~name))
        outcomes;
      let failed =
        List.exists
          (fun (_, o) ->
            match o with Check.Runner.Fail _ -> true | Check.Runner.Pass _ -> false)
          outcomes
      in
      if failed then exit 1
    end
  in
  Cmd.v (Cmd.info "fuzz" ~doc) term

let labels_cmd =
  let doc =
    "Show SLR label arithmetic: mediants, splits, the 45-split bound, and \
     the registered label-set instances."
  in
  let show () =
    let module F = Slr.Fraction in
    Format.printf "32-bit proper fractions: bound = %d@." F.bound;
    Format.printf "worst-case mediant splits before overflow: %d@."
      (F.max_splits ());
    let a = F.make ~num:1 ~den:2 and b = F.make ~num:2 ~den:3 in
    (match F.mediant a b with
    | Some m -> Format.printf "mediant(%a, %a) = %a@." F.pp a F.pp b F.pp m
    | None -> ());
    (match Slr.Farey.simplest_between ~lo:a ~hi:b with
    | Some s ->
        Format.printf "simplest fraction in (%a, %a) = %a (Farey)@." F.pp a
          F.pp b F.pp s
    | None -> ());
    (* repeated splits toward the destination, per registered instance:
       how fast each label set grows in width *)
    Format.printf "@.registered label sets (--labels):@.";
    List.iter
      (fun id ->
        let (module L : Slr.Label.S) = Slr.Label_set.instance id in
        let rec walk lo hi k acc =
          if k = 0 then List.rev acc
          else
            match L.split ~lo ~hi with
            | None -> List.rev acc
            | Some m -> walk lo m (k - 1) (m :: acc)
        in
        let splits = walk L.zero L.one 6 [] in
        Format.printf "  %-8s %s@." (Slr.Label_set.name id)
          (String.concat " > " (List.map L.encode splits));
        match List.rev splits with
        | [] -> ()
        | last :: _ ->
            let widest =
              List.fold_left
                (fun acc l -> Stdlib.max acc (L.width_bits l))
                0 splits
            in
            Format.printf "           6 splits toward %s: max width %d bits@."
              (L.encode last) widest)
      Slr.Label_set.all
  in
  let term = Term.(const show $ const ()) in
  Cmd.v (Cmd.info "labels" ~doc) term

let () =
  (* A kilonode run schedules millions of short-lived closures whose
     survivors churn the major heap: a roomier minor heap (16 MB) lets
     most die young and a laxer space_overhead halves marking work.
     Simulation results never depend on GC scheduling. *)
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 2048 * 1024; space_overhead = 200 };
  let doc =
    "Reproduction of 'Loop-Free Routing Using a Dense Label Set in Wireless \
     Networks' (ICDCS 2004)."
  in
  let info = Cmd.info "manet_sim" ~doc ~version:"1.0.0" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; campaign_cmd; check_cmd; fuzz_cmd; trace_cmd; labels_cmd ]))
