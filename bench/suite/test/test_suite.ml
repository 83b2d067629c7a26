(* The benchmark's own tests. None of them reads a clock: they check the
   command line, that a smoke run prints every metric BENCHMARK.json
   names with its unit, that counts repeat exactly, the self-time
   arithmetic, the JSON output, and the output checks: a wrong pinned
   digest fails the workload. *)

open Bench_suite
module J = Trace.Json

let exe = "../run.exe"

let run_exe args =
  let out, inp, err =
    Unix.open_process_args_full exe (Array.of_list (exe :: args)) [||]
  in
  close_out inp;
  let stdout = In_channel.input_all out in
  let stderr = In_channel.input_all err in
  let code =
    match Unix.close_process_full (out, inp, err) with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (code, stdout, stderr)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let read path = In_channel.with_open_text path In_channel.input_all

let parse_json text =
  match J.parse text with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable JSON: %s" e

let member k j =
  match J.member k j with
  | Some v -> v
  | None -> Alcotest.failf "missing member %s" k

let list = function J.List l -> l | _ -> Alcotest.fail "expected a list"

let string = function J.String s -> s | _ -> Alcotest.fail "expected a string"

(* ------------------------------------------------------------------ *)
(* Command line *)

let test_unknown_workload () =
  (match Cli.parse [ "--workload"; "nope" ] with
  | Ok _ -> Alcotest.fail "accepted an unknown workload"
  | Error msg ->
      List.iter
        (fun n -> Alcotest.(check bool) ("message lists " ^ n) true (contains msg n))
        Workloads.names);
  let code, _, err = run_exe [ "--workload"; "nope" ] in
  Alcotest.(check int) "exit code" 2 code;
  List.iter
    (fun n -> Alcotest.(check bool) ("stderr lists " ^ n) true (contains err n))
    Workloads.names

let test_parse () =
  let ok args =
    match Cli.parse args with
    | Ok o -> o
    | Error e -> Alcotest.failf "rejected %s: %s" (String.concat " " args) e
  in
  let d = ok [] in
  Alcotest.(check (list string)) "all workloads by default" Workloads.names
    (List.map (fun (w : Workloads.t) -> w.name) d.workloads);
  Alcotest.(check int) "seed" 1 d.seed;
  Alcotest.(check int) "repeats" 1 d.repeats;
  Alcotest.(check bool) "untraced" false d.traced;
  let o =
    ok
      [ "--workload"; "olsr-100"; "--workload"; "kilo-srp"; "--seed"; "7";
        "--seconds"; "30"; "--trace"; "1"; "--json"; "out.json" ]
  in
  Alcotest.(check (list string)) "workloads in order" [ "olsr-100"; "kilo-srp" ]
    (List.map (fun (w : Workloads.t) -> w.name) o.workloads);
  Alcotest.(check int) "seed" 7 o.seed;
  Alcotest.(check (float 0.0)) "seconds" 30.0 o.seconds;
  Alcotest.(check bool) "--trace 1" true o.traced;
  Alcotest.(check bool) "--trace 0" false (ok [ "--trace"; "0" ]).traced;
  List.iter
    (fun args ->
      match Cli.parse args with
      | Ok _ -> Alcotest.failf "accepted %s" (String.concat " " args)
      | Error _ -> ())
    [ [ "--seed"; "x" ]; [ "--seconds"; "0" ]; [ "--repeats"; "0" ];
      [ "--trace"; "2" ]; [ "--traced" ]; [ "--bogus" ]; [ "--seed" ] ]

(* ------------------------------------------------------------------ *)
(* Smoke runs: every workload on tiny horizons, traced, twice *)

let smoke_run tag =
  let json = Printf.sprintf "smoke_%s.json" tag in
  let code, out, err = run_exe [ "--smoke"; "--trace"; "1"; "--json"; json ] in
  if code <> 0 then Alcotest.failf "smoke run exited %d:\n%s\n%s" code out err;
  (out, read json)

let smoke = lazy (smoke_run "a", smoke_run "b")

let benchmark_metrics () =
  let b = parse_json (read "../../../BENCHMARK.json") in
  let metrics key =
    List.map
      (fun m -> (string (member "name" m), string (member "unit" m)))
      (list (member key b))
  in
  (b, metrics "end_to_end" @ metrics "per_layer")

let test_benchmark_matches_catalog () =
  let b, metrics = benchmark_metrics () in
  let catalog =
    List.map
      (fun (m : Catalog.metric) -> (m.name, m.unit))
      (Catalog.end_to_end @ Catalog.per_layer)
  in
  Alcotest.(check (list (pair string string)))
    "BENCHMARK.json metrics are the catalog's" catalog metrics;
  Alcotest.(check (list string)) "workloads" Workloads.names
    (List.map (fun w -> string (member "name" w)) (list (member "workloads" b)))

(* (workload, metric, value, unit) for every metric line of a run *)
let printed out =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | [ w; metric; value; unit ] -> Some (w, metric, value, unit)
      | _ -> None)
    (String.split_on_char '\n' out)

let test_every_metric_printed () =
  let (out, _), _ = Lazy.force smoke in
  let lines = List.map (fun (w, m, _, u) -> (w, m, u)) (printed out) in
  let _, metrics = benchmark_metrics () in
  List.iter
    (fun w ->
      List.iter
        (fun (name, unit) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s printed in %s" w name unit)
            true
            (List.mem (w, name, unit) lines))
        metrics)
    Workloads.names

let worlds_of report =
  List.map
    (fun w -> (string (member "name" w), list (member "worlds" w)))
    (list (member "workloads" (parse_json report)))

let test_counts_repeat () =
  let (_, a), (_, b) = Lazy.force smoke in
  let exact =
    List.filter_map
      (fun (m : Catalog.metric) -> if m.exact then Some m.name else None)
      Catalog.per_layer
  in
  let view sample =
    ( string (member "digest" sample),
      List.map (fun k -> (k, J.to_string (member k (member "layers" sample)))) exact )
  in
  let counts report =
    List.map
      (fun (name, worlds) ->
        ( name,
          List.map
            (fun x -> (view (member "untraced" x), view (member "traced" x)))
            worlds ))
      (worlds_of report)
  in
  let ca = counts a and cb = counts b in
  Alcotest.(check (list string)) "same workloads" (List.map fst ca) (List.map fst cb);
  List.iter2
    (fun (name, xa) (_, xb) ->
      Alcotest.(check int) (name ^ " one world each") 1 (List.length xa);
      Alcotest.(check int) (name ^ " one world each") 1 (List.length xb);
      List.iter2
        (fun ((du, lu), (dt, lt)) ((du', lu'), (dt', lt')) ->
          Alcotest.(check string) (name ^ " digest repeats") du du';
          Alcotest.(check string) (name ^ " traced digest") du dt;
          Alcotest.(check string) (name ^ " traced digest repeats") dt dt';
          Alcotest.(check (list (pair string string))) (name ^ " counts repeat") lu lu';
          Alcotest.(check (list (pair string string)))
            (name ^ " traced counts repeat") lt lt';
          Alcotest.(check string) (name ^ " traced run does the same work")
            (List.assoc "des.events" lu) (List.assoc "des.events" lt))
        xa xb)
    ca cb

(* ------------------------------------------------------------------ *)
(* Self time *)

let entry name parent total_ns =
  {
    Spans.name;
    parent;
    count = 1;
    total_ns;
    buckets = Array.make Obs.bucket_count 0;
  }

let test_self_time () =
  let es =
    [
      entry "event.a" "run" 100;
      entry "x" "event.a" 30;
      entry "y" "x" 10;
      entry "sink" "*" 5;
      entry "a1" "run" 50;
      entry "a2" "run" 50;
      entry "c" "grp" 40;
      entry "x" "a1" 20;
    ]
  in
  Alcotest.(check int) "x summed over parents" 50 (Spans.total_ns es "x");
  Alcotest.(check int) "parent minus its child" 70 (Spans.self_ns es [ "event.a" ]);
  Alcotest.(check int) "child minus grandchild" 40 (Spans.self_ns es [ "x" ]);
  Alcotest.(check int) "a group keeps its own children" 140
    (Spans.self_ns es [ "event.a"; "x" ]);
  Alcotest.(check int) "a group label is a parent" 40
    (Spans.self_ns es [ "grp"; "a1"; "a2" ]);
  Alcotest.(check int) "cross-cutting spans are nobody's child" 5
    (Spans.self_ns es [ "sink" ])

let test_recorder () =
  let sp = Spans.create [| "a"; "b" |] in
  let a = Spans.id sp "a" and b = Spans.id sp "b" in
  Spans.start sp a;
  Spans.start sp b;
  Spans.stop sp;
  Spans.stop sp;
  Spans.start sp b;
  Spans.stop sp;
  let es = Spans.entries sp in
  let find name parent =
    List.find_opt (fun (e : Spans.entry) -> e.name = name && e.parent = parent) es
  in
  let count name parent =
    match find name parent with Some e -> e.count | None -> 0
  in
  Alcotest.(check int) "a at the root" 1 (count "a" Spans.root);
  Alcotest.(check int) "b inside a" 1 (count "b" "a");
  Alcotest.(check int) "b at the root" 1 (count "b" Spans.root);
  Alcotest.(check int) "three entries" 3 (List.length es);
  Alcotest.(check bool) "child within parent" true
    ((Option.get (find "b" "a")).total_ns <= (Option.get (find "a" Spans.root)).total_ns);
  Alcotest.(check int) "histogram counts calls" 2
    (Spans.dist es [ "b" ]).Obs.dist_count

(* ------------------------------------------------------------------ *)
(* JSON output *)

let test_json_round_trip () =
  let (_, a), _ = Lazy.force smoke in
  let text = String.trim a in
  Alcotest.(check string) "report re-encodes to the same bytes" text
    (J.to_string (parse_json text));
  let sample =
    {
      Probe.ok = true;
      error = "";
      digest = "0123456789abcdef";
      wall_s = 1.25;
      setup_s = 0.004;
      peak_rss_mb = 51.5;
      layers = [ ("des.events", 700000.0); ("channel.share", 0.45) ];
    }
  in
  Alcotest.(check bool) "sample round-trips" true
    (Probe.sample_of_json (parse_json (J.to_string (Probe.sample_to_json sample)))
    = Some sample);
  let (out, _), _ = Lazy.force smoke in
  let last =
    List.fold_left
      (fun acc l -> if l = "" then acc else l)
      "" (String.split_on_char '\n' out)
  in
  let summary = parse_json last in
  Alcotest.(check (list string)) "summary keys"
    [ "correct"; "attempted"; "failed"; "metrics" ]
    (match summary with
    | J.Obj kvs -> List.map fst kvs
    | _ -> Alcotest.fail "summary is not an object")

(* ------------------------------------------------------------------ *)
(* Negative drill: a wrong pinned digest fails every run of the workload *)

let test_wrong_pin () =
  let (_, a), _ = Lazy.force smoke in
  let sample =
    match List.assoc_opt "kilo-srp" (worlds_of a) with
    | Some (w0 :: _) -> (
        match Probe.sample_of_json (member "untraced" w0) with
        | Some s -> s
        | None -> Alcotest.fail "malformed kilo-srp sample")
    | _ -> Alcotest.fail "no kilo-srp world in the smoke report"
  in
  (* world 0 once, then again as a repeat *)
  let worlds =
    List.map
      (fun s -> { Checks.index = 0; untraced = s; traced = Some s })
      [ sample; sample ]
  in
  let right = Checks.check ~pinned:[ sample.digest ] worlds in
  Alcotest.(check int) "the right pin passes" 0 right.failed;
  Alcotest.(check (float 0.0)) "error_rate 0" 0.0 (Checks.error_rate right);
  Alcotest.(check int) "exit 0" 0 (Checks.exit_code [ right ]);
  let wrong = Checks.check ~pinned:[ "0000000000000000" ] worlds in
  Alcotest.(check int) "four runs attempted" 4 wrong.attempted;
  Alcotest.(check (float 0.0)) "error_rate 1" 1.0 (Checks.error_rate wrong);
  Alcotest.(check int) "exit 1" 1 (Checks.exit_code [ right; wrong ]);
  let changed = { sample with digest = "ffffffffffffffff" } in
  let repeat =
    Checks.check ~pinned:[]
      [ List.hd worlds; { Checks.index = 0; untraced = changed; traced = None } ]
  in
  Alcotest.(check int) "a repeat that differs fails" 1 repeat.failed;
  let capped = Checks.check ~pinned:[] ~missing:[ "world 1: not run" ] worlds in
  Alcotest.(check int) "a run the cap skipped fails" 1 capped.failed

let test_pins_compiled_in () =
  Alcotest.(check bool) "pins.json parses" true
    (Result.is_ok (Checks.parse_pins Pins_data.text));
  Alcotest.(check (list string)) "a seed without pins" []
    (Checks.pinned ~workload:"kilo-srp" ~seed:(-1))

let () =
  Alcotest.run "bench-suite"
    [
      ( "cli",
        [
          Alcotest.test_case "unknown workload" `Quick test_unknown_workload;
          Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "BENCHMARK.json matches the catalog" `Quick
            test_benchmark_matches_catalog;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "every metric printed with its unit" `Slow
            test_every_metric_printed;
          Alcotest.test_case "counts repeat exactly" `Slow test_counts_repeat;
          Alcotest.test_case "JSON round trip" `Slow test_json_round_trip;
          Alcotest.test_case "wrong pinned digest" `Slow test_wrong_pin;
          Alcotest.test_case "pins compiled in" `Quick test_pins_compiled_in;
        ] );
    ]
