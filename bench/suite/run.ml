(* The repo benchmark: `dune exec bench/suite/run.exe`.

   Each workload measures a fixed list of independent worlds (see
   Workloads), [--repeats] times over. Every world runs in its own child
   process (this executable re-run with --child), one child at a time, so
   peak RSS and set-up time are those of a fresh process and no two
   simulations ever share the machine. The end-to-end metrics describe the
   batch: its total wall time, the median set-up time and the largest peak
   RSS of its processes. The output is one line per metric as
   `workload metric value unit`, then a one-line JSON summary. The exit
   code is 1 when any output check failed, 2 on a usage error. *)

open Bench_suite
module J = Trace.Json

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Children *)

(* the running child, which a SIGTERM or SIGINT to this process stops too *)
let child = ref None

let stop_child_and_exit _ =
  Option.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !child;
  exit 143

let spawn o w pass ~world_seed =
  let args =
    Array.of_list (Sys.executable_name :: Cli.child_args o w pass ~world_seed)
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  child := Some (Unix.process_in_pid ic);
  let out = In_channel.input_all ic in
  child := None;
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else l)
      "" (String.split_on_char '\n' out)
  in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      match Result.to_option (J.parse last) with
      | Some json ->
          Option.value (Probe.sample_of_json json)
            ~default:(Probe.failed "child printed a malformed sample")
      | None -> Probe.failed "child printed no sample")
  | Unix.WEXITED n -> Probe.failed (Printf.sprintf "child exited with %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Probe.failed (Printf.sprintf "child killed by signal %d" n)

(* Worlds 0 .. k-1, [repeats] times over; with --trace 1, world 0 runs
   untraced, then traced. Once the run has taken [Cli.cap_factor] times
   --seconds it starts no further child, and every run it skips fails.
   Returns each repeat's worlds and the skipped runs. *)
let run_worlds (o : Cli.t) w =
  let cap = o.seconds *. Cli.cap_factor in
  let deadline = now () +. cap in
  let world_seed = Workloads.world_seed ~seed:o.seed in
  let k = Cli.worlds o w in
  let missing = ref [] in
  let repeats =
    List.init o.repeats (fun r ->
        List.filter_map
          (fun index ->
            if now () > deadline then begin
              missing :=
                Printf.sprintf "repeat %d world %d: not run, past the %.0f s cap"
                  r index cap
                :: !missing;
              None
            end
            else
              let untraced =
                spawn o w Cli.Untraced ~world_seed:(world_seed index)
              in
              let traced =
                if o.traced then
                  Some (spawn o w Cli.Traced ~world_seed:(world_seed index))
                else None
              in
              Some { Checks.index; untraced; traced })
          (List.init k Fun.id))
  in
  (repeats, List.rev !missing)

type outcome = {
  workload : Workloads.t;
  worlds : Checks.world list;  (** every repeat's, in run order *)
  verdict : Checks.verdict;
  end_to_end : (string * float) list;
  layers : (string * float) list;
}

(* The batch metrics of one repeat; nan unless every world of it ran *)
let batch (o : Cli.t) w (xs : Checks.world list) =
  let samples = List.map (fun (x : Checks.world) -> x.untraced) xs in
  let complete =
    List.length samples = Cli.worlds o w
    && List.for_all (fun (s : Probe.sample) -> s.ok) samples
  in
  let over f g = if complete then f (List.map g samples) else nan in
  [
    ("wall_s", over (List.fold_left ( +. ) 0.0) (fun s -> s.Probe.wall_s));
    ("setup_s", over Probe.median (fun s -> s.Probe.setup_s));
    ("peak_rss_mb", over (List.fold_left Float.max 0.0) (fun s -> s.Probe.peak_rss_mb));
  ]

let measure (o : Cli.t) (w : Workloads.t) =
  let repeats, missing = run_worlds o w in
  let worlds = List.concat repeats in
  let pinned =
    if o.smoke then [] else Checks.pinned ~workload:w.name ~seed:o.seed
  in
  let verdict = Checks.check ~pinned ~missing worlds in
  let batches = List.map (batch o w) repeats in
  let end_to_end =
    List.map
      (fun (m : Catalog.metric) ->
        ( m.name,
          Probe.median
            (List.map (fun b -> List.assoc m.name b) batches) ))
      Catalog.end_to_end
  in
  let layer (ss : Probe.sample list) name =
    Probe.median
      (List.filter_map
         (fun (s : Probe.sample) ->
           if s.ok then List.assoc_opt name s.layers else None)
         ss)
  in
  let overhead =
    Probe.median
      (List.filter_map
         (fun (x : Checks.world) ->
           Option.map
             (fun (t : Probe.sample) -> (t.wall_s /. x.untraced.wall_s) -. 1.0)
             x.traced)
         worlds)
  in
  let layers =
    if not o.traced then []
    else
      List.map
        (fun (m : Catalog.metric) ->
          let pass (x : Checks.world) =
            if Catalog.untraced_layer m.name then Some x.untraced else x.traced
          in
          ( m.name,
            if m.name = "trace_overhead_frac" then overhead
            else layer (List.filter_map pass worlds) m.name ))
        Catalog.per_layer
  in
  { workload = w; worlds; verdict; end_to_end; layers }

(* ------------------------------------------------------------------ *)
(* Output *)

let unit_of name =
  match Catalog.find name with Some m -> m.unit | None -> "?"

let print_lines r =
  let line name v =
    Printf.printf "%-15s %-28s %.12g %s\n" r.workload.name name v (unit_of name)
  in
  List.iter (fun (k, v) -> line k v) r.end_to_end;
  line "error_rate" (Checks.error_rate r.verdict);
  List.iter (fun (k, v) -> line k v) r.layers;
  List.iter
    (fun p -> Printf.printf "%-15s FAILED %s\n" r.workload.name p)
    r.verdict.problems

let floats kvs = J.Obj (List.map (fun (k, v) -> (k, J.Float v)) kvs)

let report_json (o : Cli.t) results =
  let world_json (x : Checks.world) =
    J.Obj
      [
        ("world", J.Int x.index);
        ("untraced", Probe.sample_to_json x.untraced);
        ( "traced",
          match x.traced with
          | Some s -> Probe.sample_to_json s
          | None -> J.Null );
      ]
  in
  J.Obj
    [
      ("schema", J.String "bench-suite/2");
      ( "host",
        J.Obj
          [
            ("nproc", J.Int (Domain.recommended_domain_count ()));
            ("ocaml", J.String Sys.ocaml_version);
            ("repeats", J.Int o.repeats);
          ] );
      ("seed", J.Int o.seed);
      ("smoke", J.Bool o.smoke);
      ( "workloads",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("name", J.String r.workload.name);
                   ("attempted", J.Int r.verdict.attempted);
                   ("failed", J.Int r.verdict.failed);
                   ("error_rate", J.Float (Checks.error_rate r.verdict));
                   ( "problems",
                     J.List (List.map (fun p -> J.String p) r.verdict.problems) );
                   ("end_to_end", floats r.end_to_end);
                   ("per_layer", floats r.layers);
                   ("worlds", J.List (List.map world_json r.worlds));
                 ])
             results) );
    ]

(* The closing line: one JSON object; metric names carry a workload
   prefix only when several workloads ran. The untraced run reports the
   end-to-end metrics, the traced run the per-layer ones. *)
let summary_json (o : Cli.t) results =
  let single = List.length results = 1 in
  let metric r (k, v) =
    ( (if single then k else r.workload.name ^ "/" ^ k),
      J.Obj [ ("value", J.Float v); ("unit", J.String (unit_of k)) ] )
  in
  let verdicts = List.map (fun r -> r.verdict) results in
  J.Obj
    [
      ("correct", J.Bool (Checks.exit_code verdicts = 0));
      ( "attempted",
        J.Int (List.fold_left (fun a (v : Checks.verdict) -> a + v.attempted) 0 verdicts) );
      ( "failed",
        J.Int (List.fold_left (fun a (v : Checks.verdict) -> a + v.failed) 0 verdicts) );
      ( "metrics",
        J.Obj
          (List.concat_map
             (fun r ->
               List.map (metric r) (if o.traced then r.layers else r.end_to_end))
             results) );
    ]

let write_file path json =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string json);
      output_char oc '\n')

let () =
  let o =
    match Cli.parse (List.tl (Array.to_list Sys.argv)) with
    | Ok o -> o
    | Error msg ->
        prerr_endline ("error: " ^ msg);
        prerr_endline Cli.usage;
        exit 2
  in
  match o.child with
  | Some pass ->
      (* the simulator binaries' GC posture *)
      Gc.set
        { (Gc.get ()) with Gc.minor_heap_size = 2048 * 1024; space_overhead = 200 };
      let sample =
        try
          Probe.run ~traced:(pass = Cli.Traced) (List.hd o.workloads)
            ~seed:o.seed ~smoke:o.smoke
        with e -> Probe.failed (Printexc.to_string e)
      in
      print_endline (J.to_string (Probe.sample_to_json sample))
  | None ->
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle stop_child_and_exit))
        [ Sys.sigterm; Sys.sigint ];
      let results =
        List.map
          (fun w ->
            let r = measure o w in
            print_lines r;
            flush stdout;
            r)
          o.workloads
      in
      Option.iter (fun path -> write_file path (report_json o results)) o.json;
      print_endline (J.to_string (summary_json o results));
      exit (Checks.exit_code (List.map (fun r -> r.verdict) results))
