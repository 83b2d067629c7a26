(* Tests for the observability core: histogram bucket geometry, percentile
   floors, the zero-allocation contract when profiling is disabled, and the
   Prometheus exposition. *)

(* Every test leaves the global registry the way it found it: disabled and
   zeroed. Handles persist (they are interned), which is fine — tests use
   distinct metric names. *)
let scrubbed f () =
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

(* -------------------------------------------------------------------- *)
(* Bucket geometry                                                      *)

let test_bucket_index () =
  let idx = Obs.bucket_index in
  Alcotest.(check int) "zero" 0 (idx 0);
  Alcotest.(check int) "negative" 0 (idx (-17));
  Alcotest.(check int) "one" 1 (idx 1);
  Alcotest.(check int) "two" 2 (idx 2);
  Alcotest.(check int) "three" 2 (idx 3);
  Alcotest.(check int) "four" 3 (idx 4);
  Alcotest.(check int) "1000" 10 (idx 1000);
  Alcotest.(check int) "1024" 11 (idx 1024);
  Alcotest.(check int) "max_int capped" (Obs.bucket_count - 1) (idx max_int)

let test_bucket_floor () =
  Alcotest.(check int) "floor 0" 0 (Obs.bucket_floor 0);
  Alcotest.(check int) "floor 1" 1 (Obs.bucket_floor 1);
  Alcotest.(check int) "floor 2" 2 (Obs.bucket_floor 2);
  Alcotest.(check int) "floor 10" 512 (Obs.bucket_floor 10);
  Alcotest.(check int) "floor 11" 1024 (Obs.bucket_floor 11);
  (* Every representable value lands in the bucket whose floor bounds it
     from below: floor (idx v) <= v < 2 * floor (idx v) for v >= 1. *)
  List.iter
    (fun v ->
      let f = Obs.bucket_floor (Obs.bucket_index v) in
      Alcotest.(check bool)
        (Printf.sprintf "floor bounds %d" v)
        true
        (f <= v && (v < 2 * f || Obs.bucket_index v = Obs.bucket_count - 1)))
    [ 1; 2; 3; 7; 8; 9; 255; 256; 1_000_000; max_int ]

(* -------------------------------------------------------------------- *)
(* Percentiles over recorded spans                                      *)

let find_span snapshot name =
  match
    List.find_opt
      (fun d -> d.Obs.dist_name = name)
      snapshot.Obs.spans
  with
  | Some d -> d
  | None -> Alcotest.failf "span %s missing from snapshot" name

let test_percentile () =
  scrubbed (fun () ->
      Obs.enable ();
      Obs.reset ();
      let sp = Obs.span "test.percentile" in
      (* Three small values and one large one: p50 sits on the small side,
         p99 lands on the outlier's bucket floor. *)
      List.iter (Obs.record_span_ns sp) [ 1; 1; 1; 1024 ];
      let d = find_span (Obs.snapshot ()) "test.percentile" in
      Alcotest.(check int) "count" 4 d.Obs.dist_count;
      Alcotest.(check int) "total" 1027 d.Obs.dist_total;
      Alcotest.(check int) "p50" 1 (Obs.percentile d 0.5);
      Alcotest.(check int) "p99" 1024 (Obs.percentile d 0.99);
      (* Uniform 1..100: rank 50 -> value 50 -> bucket floor 32. *)
      let sp2 = Obs.span "test.percentile.uniform" in
      for v = 1 to 100 do
        Obs.record_span_ns sp2 v
      done;
      let d2 = find_span (Obs.snapshot ()) "test.percentile.uniform" in
      Alcotest.(check int) "uniform p50" 32 (Obs.percentile d2 0.5);
      Alcotest.(check int) "uniform p99" 64 (Obs.percentile d2 0.99))
    ()

let test_percentile_empty () =
  let d =
    {
      Obs.dist_name = "empty";
      dist_count = 0;
      dist_total = 0;
      dist_buckets = Array.make Obs.bucket_count 0;
    }
  in
  Alcotest.(check int) "empty dist" 0 (Obs.percentile d 0.5)

(* -------------------------------------------------------------------- *)
(* Disabled instrumentation is free                                     *)

let test_disabled_no_alloc () =
  scrubbed (fun () ->
      Obs.disable ();
      let sp = Obs.span "test.noalloc.span" in
      let h = Obs.histogram "test.noalloc.hist" in
      (* Warm up: force any lazy domain-local initialisation outside the
         measured window. *)
      Obs.start sp;
      Obs.stop sp;
      Obs.observe h 1;
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        Obs.start sp;
        Obs.stop sp;
        Obs.record_span_ns sp 42;
        Obs.observe h 7
      done;
      let after = Gc.minor_words () in
      Alcotest.(check (float 0.0))
        "no minor words allocated while disabled" 0.0 (after -. before))
    ()

let test_disabled_records_nothing () =
  scrubbed (fun () ->
      Obs.disable ();
      Obs.reset ();
      let sp = Obs.span "test.disabled.span" in
      Obs.record_span_ns sp 99;
      let s = Obs.snapshot () in
      Alcotest.(check bool)
        "no span recorded while disabled" true
        (not (List.exists (fun d -> d.Obs.dist_name = "test.disabled.span") s.Obs.spans)))
    ()

let test_counters_always_on () =
  scrubbed (fun () ->
      Obs.disable ();
      Obs.reset ();
      let c = Obs.counter "test.alwayson" in
      Obs.incr c;
      Obs.add c 4;
      Alcotest.(check int) "counter live while disabled" 5 (Obs.counter_value c);
      let s = Obs.snapshot () in
      Alcotest.(check (option int))
        "counter in snapshot" (Some 5)
        (List.assoc_opt "test.alwayson" s.Obs.counters))
    ()

let test_reset () =
  scrubbed (fun () ->
      Obs.enable ();
      let sp = Obs.span "test.reset" in
      Obs.record_span_ns sp 10;
      Obs.reset ();
      let s = Obs.snapshot () in
      Alcotest.(check bool)
        "reset clears spans" true
        (not (List.exists (fun d -> d.Obs.dist_name = "test.reset") s.Obs.spans)))
    ()

(* -------------------------------------------------------------------- *)
(* Prometheus exposition                                                *)

let test_prometheus_shape () =
  scrubbed (fun () ->
      Obs.enable ();
      Obs.reset ();
      let sp = Obs.span "test.prom.span" in
      Obs.record_span_ns sp 500;
      Obs.record_span_ns sp 1500;
      let c = Obs.counter "test.prom.counter" in
      Obs.add c 3;
      let text = Obs.Export.prometheus (Obs.snapshot ()) in
      let lines = String.split_on_char '\n' text in
      (* One # TYPE line per family, no duplicates. *)
      let types =
        List.filter
          (fun l -> String.length l > 7 && String.sub l 0 7 = "# TYPE ")
          lines
      in
      let uniq = List.sort_uniq compare types in
      Alcotest.(check int)
        "no duplicate TYPE lines" (List.length uniq) (List.length types);
      (* Sample names with identical label sets must not repeat. *)
      let samples =
        List.filter
          (fun l -> l <> "" && l.[0] <> '#')
          lines
        |> List.map (fun l ->
               match String.index_opt l ' ' with
               | Some i -> String.sub l 0 i
               | None -> l)
      in
      let uniq_samples = List.sort_uniq compare samples in
      Alcotest.(check int)
        "no duplicate samples" (List.length uniq_samples) (List.length samples);
      Alcotest.(check bool)
        "span family present" true
        (List.exists
           (fun l -> l = "# TYPE manet_span_seconds_total counter")
           lines))
    ()

let () =
  Alcotest.run "obs"
    [
      ( "buckets",
        [
          Alcotest.test_case "index" `Quick test_bucket_index;
          Alcotest.test_case "floor" `Quick test_bucket_floor;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "known inputs" `Quick test_percentile;
          Alcotest.test_case "empty" `Quick test_percentile_empty;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "zero allocation" `Quick test_disabled_no_alloc;
          Alcotest.test_case "records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "counters always on" `Quick
            test_counters_always_on;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "export",
        [ Alcotest.test_case "prometheus shape" `Quick test_prometheus_shape ] );
    ]
