(* Tests for the observability core: histogram bucket geometry, percentile
   floors, exact snapshot merging (property-tested — associativity and
   commutativity are what let campaign workers be merged in any order), and
   the zero-allocation contract when profiling is disabled. *)

module Gen = Check.Gen
module Runner = Check.Runner

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
(* Merge laws, property-tested                                          *)

(* Snapshots are plain data, so the laws are checked on synthetic values —
   far denser than anything the instrumented paths would produce. Keys are
   drawn from small fixed sets so collisions (the interesting case for a
   union-merge) are common. *)

let gen_buckets =
  Gen.map
    (fun cells ->
      let a = Array.make Obs.bucket_count 0 in
      List.iter (fun (i, v) -> a.(i) <- a.(i) + v) cells;
      a)
    (Gen.list_size (Gen.int_range 0 4)
       (Gen.pair (Gen.int_range 0 (Obs.bucket_count - 1)) (Gen.int_range 0 1000)))

let gen_dist name =
  Gen.map2
    (fun buckets total ->
      {
        Obs.dist_name = name;
        dist_count = Array.fold_left ( + ) 0 buckets;
        dist_total = total;
        dist_buckets = buckets;
      })
    gen_buckets (Gen.int_range 0 100_000)

(* For each name in a fixed catalogue, independently include a dist or not:
   the result is sorted with unique keys, as [snapshot] guarantees. *)
let gen_dists names =
  List.fold_right
    (fun name acc ->
      Gen.map2
        (fun present rest ->
          match present with Some d -> d :: rest | None -> rest)
        (Gen.map2
           (fun keep d -> if keep then Some d else None)
           Gen.bool (gen_dist name))
        acc)
    names (Gen.pure [])

let gen_assoc names =
  List.fold_right
    (fun name acc ->
      Gen.map2
        (fun v rest ->
          match v with Some n -> (name, n) :: rest | None -> rest)
        (Gen.map2
           (fun keep n -> if keep then Some n else None)
           Gen.bool (Gen.int_range 0 10_000))
        acc)
    names (Gen.pure [])

let gen_worker domain =
  Gen.map2
    (fun (cells, busy) (minor, major) ->
      {
        Obs.w_domain = domain;
        w_cells = cells;
        w_busy_ns = busy;
        w_minor_collections = minor;
        w_major_collections = major;
        w_minor_words = minor * 1000;
        w_promoted_words = major * 10;
        w_major_words = major * 100;
      })
    (Gen.pair (Gen.int_range 1 50) (Gen.int_range 0 1_000_000))
    (Gen.pair (Gen.int_range 0 100) (Gen.int_range 0 10))

let gen_workers =
  List.fold_right
    (fun domain acc ->
      Gen.map2
        (fun v rest -> match v with Some w -> w :: rest | None -> rest)
        (Gen.map2
           (fun keep w -> if keep then Some w else None)
           Gen.bool (gen_worker domain))
        acc)
    [ 0; 1; 2 ] (Gen.pure [])

let gen_snapshot =
  Gen.map2
    (fun (spans, hists) (counters, workers) ->
      { Obs.spans; hists; counters; workers })
    (Gen.pair (gen_dists [ "s.a"; "s.b"; "s.c" ]) (gen_dists [ "h.x"; "h.y" ]))
    (Gen.pair (gen_assoc [ "c.a"; "c.b" ]) gen_workers)

(* Canonical rendering for equality: covers every field, including bucket
   contents, so a merge that drops or reorders anything is caught. *)
let render_dist d =
  let buckets =
    d.Obs.dist_buckets |> Array.to_list
    |> List.mapi (fun i v -> (i, v))
    |> List.filter (fun (_, v) -> v <> 0)
    |> List.map (fun (i, v) -> Printf.sprintf "%d:%d" i v)
    |> String.concat ","
  in
  Printf.sprintf "%s#%d/%d[%s]" d.Obs.dist_name d.Obs.dist_count
    d.Obs.dist_total buckets

let render_worker w =
  Printf.sprintf "w%d:%d,%d,%d,%d,%d,%d,%d" w.Obs.w_domain w.Obs.w_cells
    w.Obs.w_busy_ns w.Obs.w_minor_collections w.Obs.w_major_collections
    w.Obs.w_minor_words w.Obs.w_promoted_words w.Obs.w_major_words

let render s =
  String.concat "|"
    [
      String.concat ";" (List.map render_dist s.Obs.spans);
      String.concat ";" (List.map render_dist s.Obs.hists);
      String.concat ";"
        (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) s.Obs.counters);
      String.concat ";" (List.map render_worker s.Obs.workers);
    ]

let check_prop name cell =
  match Runner.run_cell ~seed:7 ~cases:300 cell with
  | Runner.Pass _ -> ()
  | Runner.Fail _ as outcome ->
      Alcotest.fail (Runner.report outcome ~name)

let test_merge_commutative () =
  check_prop "merge-commutative"
    (Runner.cell ~name:"merge-commutative"
       ~print:(fun (a, b) -> render a ^ " <> " ^ render b)
       (Gen.pair gen_snapshot gen_snapshot)
       (fun (a, b) ->
         let ab = render (Obs.merge_snapshots a b) in
         let ba = render (Obs.merge_snapshots b a) in
         if ab = ba then Ok ()
         else Error (Printf.sprintf "a+b = %s\nb+a = %s" ab ba)))

let test_merge_associative () =
  check_prop "merge-associative"
    (Runner.cell ~name:"merge-associative"
       ~print:(fun (a, (b, c)) ->
         render a ^ " <> " ^ render b ^ " <> " ^ render c)
       (Gen.pair gen_snapshot (Gen.pair gen_snapshot gen_snapshot))
       (fun (a, (b, c)) ->
         let l =
           render (Obs.merge_snapshots (Obs.merge_snapshots a b) c)
         in
         let r =
           render (Obs.merge_snapshots a (Obs.merge_snapshots b c))
         in
         if l = r then Ok ()
         else Error (Printf.sprintf "(a+b)+c = %s\na+(b+c) = %s" l r)))

let test_merge_identity () =
  let empty =
    { Obs.spans = []; hists = []; counters = []; workers = [] }
  in
  check_prop "merge-identity"
    (Runner.cell ~name:"merge-identity" ~print:render gen_snapshot (fun s ->
         let l = render (Obs.merge_snapshots empty s) in
         let r = render (Obs.merge_snapshots s empty) in
         let orig = render s in
         if l = orig && r = orig then Ok ()
         else Error (Printf.sprintf "empty+s = %s\ns+empty = %s\ns = %s" l r orig)))

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
      ( "merge",
        [
          Alcotest.test_case "commutative" `Quick test_merge_commutative;
          Alcotest.test_case "associative" `Quick test_merge_associative;
          Alcotest.test_case "identity" `Quick test_merge_identity;
        ] );
      ( "export",
        [ Alcotest.test_case "prometheus shape" `Quick test_prometheus_shape ] );
    ]
