(* Telemetry subsystem tests: the hand-rolled JSON codec, the trace sinks,
   and the two determinism guarantees the PR promises — same-seed traced
   runs emit byte-identical JSONL, and tracing never perturbs the
   simulation's results. *)

module J = Trace.Json
module C = Sim.Config

let quick_config protocol =
  {
    C.small with
    protocol;
    nodes = 25;
    terrain = Wireless.Terrain.make ~width:900.0 ~height:300.0;
    duration = 35.0;
    flows = 4;
    pause = 0.0;
    seed = 7;
  }

(* ------------------------------------------------------------------ *)
(* JSON codec *)

let test_json_encode () =
  let j =
    J.Obj
      [
        ("a", J.Int 1);
        ("b", J.Float 2.5);
        ("c", J.String "x\"y\n");
        ("d", J.List [ J.Bool true; J.Null ]);
        ("e", J.Float 3.0);
      ]
  in
  Alcotest.(check string)
    "deterministic encoding"
    "{\"a\":1,\"b\":2.5,\"c\":\"x\\\"y\\n\",\"d\":[true,null],\"e\":3.0}"
    (J.to_string j)

let test_json_float_format () =
  Alcotest.(check string) "integral floats get .0" "5.0" (J.float_str 5.0);
  Alcotest.(check string) "negative zero" "-0.0" (J.float_str (-0.0));
  Alcotest.(check string) "nan is null" "null" (J.float_str Float.nan);
  Alcotest.(check string) "inf is null" "null" (J.float_str Float.infinity);
  Alcotest.(check string) "short decimal" "0.25" (J.float_str 0.25);
  (* what Printf's %.1f / %.12g print, not string_of_float, which would
     append a dot ("123456789012.") *)
  List.iter
    (fun (f, expected) ->
      Alcotest.(check string) (Printf.sprintf "%h" f) expected (J.float_str f))
    [
      (123456789012.4, Printf.sprintf "%.12g" 123456789012.4);
      (1234567.000001, Printf.sprintf "%.12g" 1234567.000001);
      (1e15, Printf.sprintf "%.12g" 1e15);
      (999999999999999.0, Printf.sprintf "%.1f" 999999999999999.0);
      (5e-324, Printf.sprintf "%.12g" 5e-324);
      (1e-7, Printf.sprintf "%.12g" 1e-7);
      (-2.5, Printf.sprintf "%.12g" (-2.5));
      (* exact ties at the 12th digit go to even *)
      (1000000000.125, "1000000000.12");
      (1000000000.375, "1000000000.38");
      (12345678901.25, "12345678901.2");
      (12345678901.75, "12345678901.8");
      (-123456789.0625, "-123456789.062");
      (123456789.1875, "123456789.188");
      (100000000000.5, "100000000000");
      (999999999998.5, "999999999998");
      (* where rounding or the power of ten changes the notation, and the
         ends of the range float_str scales itself *)
      (999999999999.5, "1e+12");
      (Float.pred 1e12, "1e+12");
      (Float.pred 10.0, "10");
      (Float.pred 1e-4, "0.0001");
      (9.5e-5, "9.5e-05");
      (Float.pred 1e-5, "1e-05");
      (1e-11, "1e-11");
      (Float.succ 1e-11, "1e-11");
    ];
  Alcotest.(check string) "1e15 leaves %.1f" "1e+15" (J.float_str 1e15)

let test_json_string_escapes () =
  let enc s = J.to_string (J.String s) in
  Alcotest.(check string) "every control character, quote and backslash"
    "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\\\"\\\\\""
    (enc (String.init 32 Char.chr ^ "\"\\"));
  Alcotest.(check string) "nothing to escape: bytes copied"
    "\"rreq caf\xc3\xa9 \x7f /\"" (enc "rreq caf\xc3\xa9 \x7f /");
  Alcotest.(check string) "escapes amid plain bytes" "\"a\\\"b\\nc\""
    (enc "a\"b\nc")

let test_json_roundtrip () =
  let j =
    J.Obj
      [
        ("nested", J.Obj [ ("k", J.List [ J.Int 1; J.Int 2 ]) ]);
        ("s", J.String "caf\xc3\xa9 \\ / tab\t");
        ("f", J.Float 0.001234);
        ("n", J.Int (-42));
      ]
  in
  match J.parse (J.to_string j) with
  | Ok j' ->
      Alcotest.(check string) "parse inverts encode" (J.to_string j)
        (J.to_string j')
  | Error msg -> Alcotest.fail msg

let test_json_parse_errors () =
  let bad s =
    match J.parse s with Ok _ -> Alcotest.fail ("accepted " ^ s) | Error _ -> ()
  in
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "tru";
  bad "\"unterminated";
  bad "1 2"

let test_json_path () =
  match J.parse "{\"a\":{\"b\":{\"c\":7}},\"x\":1}" with
  | Error msg -> Alcotest.fail msg
  | Ok j -> (
      (match J.path "a.b.c" j with
      | Some (J.Int 7) -> ()
      | _ -> Alcotest.fail "a.b.c should be 7");
      match J.path "a.z" j with
      | None -> ()
      | Some _ -> Alcotest.fail "a.z should be absent")

(* ------------------------------------------------------------------ *)
(* Sinks *)

let test_null_is_disabled () =
  Alcotest.(check bool) "null disabled" false (Trace.enabled Trace.null);
  (* emitting into the null sink is a no-op, not an error *)
  Trace.mac_collision Trace.null ~node:0

(* ------------------------------------------------------------------ *)
(* Checkpoint journal *)

let with_temp_journal f =
  let path = Filename.temp_file "journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let append_raw path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let test_journal_roundtrip () =
  with_temp_journal (fun path ->
      let r1 = J.Obj [ ("i", J.Int 1); ("f", J.Float 0.5) ] in
      let r2 = J.Obj [ ("i", J.Int 2) ] in
      (match Trace.Journal.resume path with
      | Ok ([], j) ->
          Trace.Journal.append j r1;
          Trace.Journal.append j r2;
          Trace.Journal.close j
      | Ok _ -> Alcotest.fail "fresh journal should be empty"
      | Error e -> Alcotest.fail e);
      match Trace.Journal.load path with
      | Ok records ->
          Alcotest.(check (list string))
            "records round-trip in order"
            [ J.to_string r1; J.to_string r2 ]
            (List.map J.to_string records)
      | Error e -> Alcotest.fail e)

let test_journal_drops_torn_tail () =
  with_temp_journal (fun path ->
      let r1 = J.Obj [ ("i", J.Int 1) ] in
      (match Trace.Journal.resume path with
      | Ok ([], j) ->
          Trace.Journal.append j r1;
          Trace.Journal.close j
      | _ -> Alcotest.fail "fresh journal should be empty");
      (* a kill mid-append leaves an unterminated fragment *)
      append_raw path "{\"i\":2,\"trunca";
      (match Trace.Journal.resume path with
      | Ok (records, j) ->
          Trace.Journal.close j;
          Alcotest.(check (list string))
            "valid prefix survives, torn tail dropped"
            [ J.to_string r1 ]
            (List.map J.to_string records)
      | Error e -> Alcotest.fail e);
      (* resume rewrote the file: the fragment is gone for good *)
      match Trace.Journal.load path with
      | Ok records ->
          Alcotest.(check int) "file rewritten clean" 1 (List.length records)
      | Error e -> Alcotest.fail e)

let test_journal_rejects_corrupt_middle () =
  with_temp_journal (fun path ->
      append_raw path "{\"i\":1}\nnot json at all\n{\"i\":2}\n";
      (match Trace.Journal.resume path with
      | Ok _ -> Alcotest.fail "mid-file corruption must be an error"
      | Error _ -> ());
      match Trace.Journal.load path with
      | Ok _ -> Alcotest.fail "load must reject mid-file corruption too"
      | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Determinism *)

let jsonl_of_run config =
  let path = Filename.temp_file "trace" ".jsonl" in
  let oc = open_out path in
  let trace = Trace.jsonl ~clock:(fun () -> 0.0) oc in
  let result = Sim.Runner.run ~trace ~sample_every:5.0 config in
  close_out oc;
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  (result, contents)

let test_traced_runs_byte_identical () =
  let config = quick_config C.Srp in
  let r1, bytes1 = jsonl_of_run config in
  let r2, bytes2 = jsonl_of_run config in
  Alcotest.(check bool) "trace is non-trivial" true
    (String.length bytes1 > 1000);
  Alcotest.(check string) "same seed, same bytes" bytes1 bytes2;
  Alcotest.(check bool) "same results" true (r1 = r2)

let test_tracing_does_not_perturb () =
  let config = quick_config C.Srp in
  let untraced = Sim.Runner.run config in
  (* callback sink, no sampler: the event schedule is untouched, so every
     field of the result — engine_events included — must match exactly *)
  let records = ref 0 in
  let trace = Trace.callback ~clock:(fun () -> 0.0) (fun _ -> incr records) in
  let traced = Sim.Runner.run ~trace config in
  Alcotest.(check bool) "records were emitted" true (!records > 0);
  Alcotest.(check bool) "tracing is invisible" true (untraced = traced);
  (* with the periodic sampler armed, only the sampler's own engine ticks
     may differ; the paper metrics must not move *)
  let oc = open_out Filename.null in
  let sampled =
    Sim.Runner.run ~trace:(Trace.jsonl ~clock:(fun () -> 0.0) oc)
      ~sample_every:5.0 config
  in
  close_out oc;
  Alcotest.(check bool) "sampler only adds its own ticks" true
    (untraced = { sampled with Sim.Metrics.engine_events = untraced.Sim.Metrics.engine_events });
  Alcotest.(check bool) "sampler ticks were executed" true
    (sampled.Sim.Metrics.engine_events > untraced.Sim.Metrics.engine_events)

let test_trace_has_lifecycle_events () =
  let config = quick_config C.Srp in
  let _, bytes = jsonl_of_run config in
  let lines = String.split_on_char '\n' (String.trim bytes) in
  List.iter
    (fun line ->
      match J.parse line with
      | Ok json ->
          List.iter
            (fun k ->
              if J.member k json = None then
                Alcotest.fail (Printf.sprintf "record lacks %S: %s" k line))
            [ "t"; "node"; "ev" ]
      | Error msg -> Alcotest.fail (line ^ ": " ^ msg))
    lines;
  let has ev =
    List.exists
      (fun line ->
        match J.parse line with
        | Ok json -> J.member "ev" json = Some (J.String ev)
        | Error _ -> false)
      lines
  in
  List.iter
    (fun ev ->
      Alcotest.(check bool) (ev ^ " present") true (has ev))
    [
      "pkt-originate"; "pkt-enqueue"; "pkt-tx"; "pkt-rx"; "pkt-forward";
      "pkt-deliver"; "ctl-tx"; "ctl-rx"; "route-add"; "mac-backoff"; "gauge";
    ]

(* The bytes themselves, not only their repeatability: an encoder change
   that moves a single byte of the JSONL must fail here. SRP under the
   hostile fault plan with the sampler armed, so the pinned stream holds
   every family of record. *)
let pinned_trace_digest = "cc93ee6e3025a2385f71857b95138510"

(* The same stream without its gauge records. Gauges report engine
   bookkeeping ([executed], [live_events], [events_per_sec]) besides the
   simulation, so a change to how the engine schedules work may move the
   full digest; every other record describes the simulated network, and a
   change that leaves the outputs alone must keep this digest. *)
let pinned_non_gauge_digest = "9ba17b2d9ef78023ce2c6e446603d965"

let test_trace_bytes_pinned () =
  let hostile = Option.get (Sim.Scenario.find "hostile") in
  let config = Sim.Scenario.apply hostile (quick_config C.Srp) in
  let _, bytes = jsonl_of_run config in
  let records =
    List.filter_map
      (fun line ->
        match J.parse line with
        | Ok json -> (
            match J.member "ev" json with
            | Some (J.String ev) -> Some (ev, line)
            | _ -> None)
        | Error msg -> Alcotest.fail (line ^ ": " ^ msg))
      (String.split_on_char '\n' (String.trim bytes))
  in
  let kinds = List.map fst records in
  let has prefix =
    List.exists (String.starts_with ~prefix) kinds
  in
  List.iter
    (fun prefix ->
      Alcotest.(check bool) (prefix ^ " present") true (has prefix))
    [ "fault"; "gauge"; "label-split"; "pkt-"; "ctl-"; "route-"; "mac-" ];
  let non_gauge =
    List.filter_map
      (fun (ev, line) -> if ev = "gauge" then None else Some (line ^ "\n"))
      records
  in
  Alcotest.(check string) "non-gauge JSONL digest" pinned_non_gauge_digest
    (Digest.to_hex (Digest.string (String.concat "" non_gauge)));
  Alcotest.(check string) "JSONL digest" pinned_trace_digest
    (Digest.to_hex (Digest.string bytes))

(* ------------------------------------------------------------------ *)
(* JSON export of results *)

let test_result_json_fields () =
  let config = quick_config C.Aodv in
  let result = Sim.Runner.run config in
  let envelope = Sim.Report.run_json config result in
  (match J.path "schema" envelope with
  | Some (J.String "manet-sim/run-v2") -> ()
  | _ -> Alcotest.fail "schema marker missing");
  List.iter
    (fun p ->
      if J.path p envelope = None then
        Alcotest.fail (Printf.sprintf "missing %s" p))
    [
      "config.protocol"; "config.seed"; "config.nodes"; "config.labels";
      "config.channel"; "config.mobility"; "config.traffic";
      "result.sent"; "result.delivered"; "result.delivery_ratio";
      "result.network_load"; "result.latency"; "result.engine_events";
      "result.max_denominator"; "result.label_width_bits";
      "result.label_resets";
    ];
  (* the export round-trips through the parser *)
  match J.parse (J.to_string envelope) with
  | Ok j ->
      Alcotest.(check string) "round trip" (J.to_string envelope)
        (J.to_string j)
  | Error msg -> Alcotest.fail msg

let () =
  Alcotest.run "trace"
    [
      ( "json",
        [
          Alcotest.test_case "encode" `Quick test_json_encode;
          Alcotest.test_case "float format" `Quick test_json_float_format;
          Alcotest.test_case "string escapes" `Quick test_json_string_escapes;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "path" `Quick test_json_path;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "null disabled" `Quick test_null_is_disabled;
          Alcotest.test_case "pinned JSONL bytes" `Slow
            test_trace_bytes_pinned;
        ] );
      ( "journal",
        [
          Alcotest.test_case "append/load roundtrip" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "torn tail dropped" `Quick
            test_journal_drops_torn_tail;
          Alcotest.test_case "corrupt middle rejected" `Quick
            test_journal_rejects_corrupt_middle;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same-seed JSONL bytes" `Slow
            test_traced_runs_byte_identical;
          Alcotest.test_case "tracing does not perturb" `Slow
            test_tracing_does_not_perturb;
          Alcotest.test_case "lifecycle events present" `Slow
            test_trace_has_lifecycle_events;
        ] );
      ( "export",
        [
          Alcotest.test_case "run json fields" `Slow test_result_json_fields;
        ] );
    ]
