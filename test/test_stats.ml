(* Tests for the statistics library: Welford summaries, merging,
   Student-t confidence intervals. *)

module S = Stats.Summary

let add_all s xs = List.iter (S.add s) xs

let test_mean_variance () =
  let s = S.create () in
  add_all s [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (S.mean s);
  (* population variance is 4; sample variance = 32/7 *)
  Alcotest.(check (float 1e-9)) "sample variance" (32.0 /. 7.0) (S.variance s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (S.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (S.max s);
  Alcotest.(check int) "count" 8 (S.count s)

let test_empty_and_single () =
  let s = S.create () in
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (S.mean s);
  Alcotest.(check (float 0.0)) "empty variance" 0.0 (S.variance s);
  Alcotest.(check (float 0.0)) "empty ci" 0.0 (S.ci95 s);
  S.add s 3.5;
  Alcotest.(check (float 1e-9)) "single mean" 3.5 (S.mean s);
  Alcotest.(check (float 0.0)) "single variance" 0.0 (S.variance s);
  Alcotest.(check (float 0.0)) "single ci" 0.0 (S.ci95 s)

let test_t_table () =
  Alcotest.(check (float 1e-6)) "df=1" 12.706 (S.t_critical_95 1);
  Alcotest.(check (float 1e-6)) "df=9 (paper's 10 trials)" 2.262
    (S.t_critical_95 9);
  Alcotest.(check (float 1e-6)) "df large" 1.960 (S.t_critical_95 1000);
  Alcotest.check_raises "df=0"
    (Invalid_argument "Summary.t_critical_95: df must be >= 1") (fun () ->
      ignore (S.t_critical_95 0))

let test_ci95 () =
  let s = S.create () in
  add_all s [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  (* stddev = sqrt(2.5), se = sqrt(0.5), t(4) = 2.776 *)
  Alcotest.(check (float 1e-6)) "ci95"
    (2.776 *. sqrt 0.5)
    (S.ci95 s)

let test_overlap () =
  let a = S.create () and b = S.create () and c = S.create () in
  add_all a [ 1.0; 1.1; 0.9 ];
  add_all b [ 1.05; 1.15; 0.95 ];
  add_all c [ 5.0; 5.1; 4.9 ];
  Alcotest.(check bool) "close distributions overlap" true (S.overlap a b);
  Alcotest.(check bool) "distant ones do not" false (S.overlap a c)

let () =
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "mean/variance" `Quick test_mean_variance;
          Alcotest.test_case "empty and single" `Quick test_empty_and_single;
          Alcotest.test_case "t table" `Quick test_t_table;
          Alcotest.test_case "ci95" `Quick test_ci95;
          Alcotest.test_case "overlap" `Quick test_overlap;
          Fixture.catalogue_case "merge equals pooled observations"
            "summary-merge";
          Fixture.catalogue_case "mean lies within [min, max]" "summary-merge";
        ] );
    ]
