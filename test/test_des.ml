(* Tests for the discrete-event engine: heap, scheduler, RNG. *)

module H = Des.Heap
module E = Des.Engine
module R = Des.Rng

let test_heap_basic () =
  let h = H.create () in
  Alcotest.(check bool) "empty" true (H.is_empty h);
  H.add h ~key:3.0 ~tie:0 "c";
  H.add h ~key:1.0 ~tie:1 "a";
  H.add h ~key:2.0 ~tie:2 "b";
  Alcotest.(check int) "size" 3 (H.size h);
  let _, _, v = H.pop h in
  Alcotest.(check string) "min first" "a" v;
  let _, _, v = H.pop h in
  Alcotest.(check string) "then b" "b" v;
  let _, _, v = H.pop h in
  Alcotest.(check string) "then c" "c" v;
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.pop: empty heap")
    (fun () -> ignore (H.pop h))

let test_heap_tie_break () =
  let h = H.create () in
  for i = 9 downto 0 do
    H.add h ~key:1.0 ~tie:i i
  done;
  let order = List.map (fun (_, _, v) -> v) (H.to_sorted_list h) in
  Alcotest.(check (list int)) "ties by insertion sequence"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] order

let test_engine_ordering () =
  let e = E.create () in
  let log = ref [] in
  ignore (E.schedule e ~delay:2.0 (fun () -> log := "b" :: !log));
  ignore (E.schedule e ~delay:1.0 (fun () -> log := "a" :: !log));
  ignore (E.schedule e ~delay:3.0 (fun () -> log := "c" :: !log));
  E.run e ~until:2.5;
  Alcotest.(check (list string)) "ran a b" [ "b"; "a" ] !log;
  Alcotest.(check (float 1e-9)) "clock capped at until" 2.5 (E.now e);
  E.run e ~until:10.0;
  Alcotest.(check (list string)) "then c" [ "c"; "b"; "a" ] !log;
  Alcotest.(check int) "executed" 3 (E.executed e)

let test_engine_cancel () =
  let e = E.create () in
  let fired = ref false in
  let h = E.schedule e ~delay:1.0 (fun () -> fired := true) in
  Alcotest.(check int) "pending" 1 (E.pending e);
  E.cancel h;
  Alcotest.(check bool) "cancelled" true (E.cancelled h);
  Alcotest.(check int) "pending after cancel" 0 (E.pending e);
  E.run_all e;
  Alcotest.(check bool) "never fired" false !fired;
  (* double cancel is a no-op *)
  E.cancel h;
  Alcotest.(check int) "pending stable" 0 (E.pending e)

let test_engine_nested_schedule () =
  let e = E.create () in
  let times = ref [] in
  ignore
    (E.schedule e ~delay:1.0 (fun () ->
         times := E.now e :: !times;
         ignore (E.schedule e ~delay:0.5 (fun () -> times := E.now e :: !times))));
  E.run_all e;
  Alcotest.(check (list (float 1e-9))) "nested event time" [ 1.5; 1.0 ] !times

let test_engine_same_time_fifo () =
  let e = E.create () in
  let log = ref [] in
  for i = 0 to 4 do
    ignore (E.schedule e ~delay:1.0 (fun () -> log := i :: !log))
  done;
  E.run_all e;
  Alcotest.(check (list int)) "FIFO at equal time" [ 4; 3; 2; 1; 0 ] !log

let test_engine_rejects_past () =
  let e = E.create () in
  ignore (E.schedule e ~delay:1.0 (fun () -> ()));
  E.run_all e;
  Alcotest.(check bool) "schedule_at past raises" true
    (try
       ignore (E.schedule_at e ~time:0.5 (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_rng_determinism () =
  let a = R.create 42L and b = R.create 42L in
  let xs = List.init 100 (fun _ -> R.bits64 a) in
  let ys = List.init 100 (fun _ -> R.bits64 b) in
  Alcotest.(check bool) "same seed, same stream" true (xs = ys);
  let c = R.create 43L in
  Alcotest.(check bool) "different seed differs" true
    (R.bits64 c <> List.hd xs)

let test_rng_split_independent () =
  let root = R.create 7L in
  let s1 = R.split root "mobility" in
  (* drawing from the root must not perturb the substream definition *)
  let root2 = R.create 7L in
  ignore (R.bits64 root2);
  ignore (R.bits64 root2);
  let s1' = R.split (R.create 7L) "mobility" in
  Alcotest.(check bool) "substream depends only on (seed, tag)" true
    (R.bits64 s1 = R.bits64 s1');
  let s2 = R.split (R.create 7L) "traffic" in
  Alcotest.(check bool) "different tags differ" true
    (R.bits64 (R.split (R.create 7L) "mobility") <> R.bits64 s2)

let test_rng_ranges () =
  let r = R.create 1L in
  for _ = 1 to 1000 do
    let v = R.int r 10 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 10);
    let f = R.float r 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 2.5);
    let u = R.uniform r ~lo:(-1.0) ~hi:1.0 in
    Alcotest.(check bool) "uniform in range" true (u >= -1.0 && u < 1.0)
  done;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (R.int r 0))

let test_rng_exponential_mean () =
  let r = R.create 5L in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. R.exponential r ~mean:60.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "exponential mean ~60 (got %.2f)" mean)
    true
    (mean > 57.0 && mean < 63.0)

let () =
  Alcotest.run "des"
    [
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "tie break" `Quick test_heap_tie_break;
          Fixture.catalogue_case "heap drains in sorted order"
            "heap-drain-sorted";
        ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "same-time FIFO" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        ] );
    ]
