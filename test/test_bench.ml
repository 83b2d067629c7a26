(* The work ledger's comparison ([bench/main.exe work --check]) on
   synthetic ledgers: counts must repeat exactly, words must stay within
   the band either way, and the toolchain must match. Every failure names
   the row that moved. *)

module L = Work_ledger

let transmit = "micro/channel-1k/Channel.transmit (grid)"

let committed =
  {
    L.ocaml = "5.1.1";
    rows =
      [
        {
          L.name = "kilo-srp";
          counts = [ ("des.events", 3_607_737); ("channel.receptions", 5_000) ];
          words = 319_167_943.0;
        };
        { L.name = transmit; counts = []; words = 432.97 };
      ];
  }

let with_row name f =
  {
    committed with
    rows =
      List.map (fun (r : L.row) -> if r.name = name then f r else r)
        committed.rows;
  }

let scale_words k (r : L.row) = { r with words = r.words *. k }

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i =
    i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1))
  in
  scan 0

(* exactly one message, mentioning every needle *)
let fails_with fresh needles =
  match L.check ~committed ~fresh with
  | [ msg ] ->
      List.iter
        (fun n ->
          if not (contains msg n) then
            Alcotest.failf "%S does not mention %S" msg n)
        needles
  | msgs ->
      Alcotest.failf "expected one message, got %d: %s" (List.length msgs)
        (String.concat " | " msgs)

let passes fresh =
  Alcotest.(check (list string)) "passes" [] (L.check ~committed ~fresh)

let test_equal () =
  passes committed;
  (* inside the band either way *)
  passes (with_row "kilo-srp" (scale_words 1.009));
  passes (with_row transmit (scale_words 0.991))

let test_count_changed () =
  fails_with
    (with_row "kilo-srp" (fun r ->
         let bump (k, v) = if k = "des.events" then (k, v + 1) else (k, v) in
         { r with counts = List.map bump r.counts }))
    [ "kilo-srp"; "des.events"; "3607737"; "3607738" ]

let test_words_up () =
  fails_with
    (with_row "kilo-srp" (scale_words 1.015))
    [ "kilo-srp"; "minor words"; "+1.50%"; "regression" ];
  fails_with
    (with_row transmit (scale_words 1.393))
    [ "Channel.transmit (grid)"; "432.97"; "regression" ]

let test_words_down () =
  fails_with
    (with_row "kilo-srp" (scale_words 0.985))
    [ "kilo-srp"; "-1.50%"; "regenerate"; L.regenerate ]

let test_toolchain () =
  fails_with
    { committed with ocaml = "5.2.0" }
    [ "5.1.1"; "5.2.0"; "regenerate" ]

let test_missing () =
  fails_with
    {
      committed with
      rows =
        List.filter (fun (r : L.row) -> r.name <> "kilo-srp") committed.rows;
    }
    [ "kilo-srp"; "missing" ];
  fails_with
    (with_row "kilo-srp" (fun r ->
         { r with counts = [ ("des.events", 3_607_737) ] }))
    [ "kilo-srp"; "channel.receptions"; "missing" ];
  (* the other way round: a world or counter the ledger does not hold *)
  let extra =
    { L.name = "srp-5k"; counts = [ ("des.events", 1) ]; words = 1.0 }
  in
  fails_with
    { committed with rows = committed.rows @ [ extra ] }
    [ "srp-5k"; "not in the ledger" ];
  fails_with
    (with_row "kilo-srp" (fun r ->
         { r with counts = r.counts @ [ ("olsr.route.recomputes", 3) ] }))
    [ "kilo-srp"; "olsr.route.recomputes"; "not in the ledger" ]

let test_every_row_named () =
  let moved (r : L.row) =
    {
      r with
      counts = List.map (fun (k, v) -> (k, v + 1)) r.counts;
      words = r.words *. 2.0;
    }
  in
  let fresh = { committed with rows = List.map moved committed.rows } in
  Alcotest.(check int) "two counts and two words moved" 4
    (List.length (L.check ~committed ~fresh))

let test_round_trip () =
  match L.of_string (L.to_string committed) with
  | Ok back ->
      Alcotest.(check (list string)) "parsed ledger matches" []
        (L.check ~committed ~fresh:back);
      Alcotest.(check int) "rows" 2 (List.length back.L.rows)
  | Error e -> Alcotest.failf "round trip: %s" e

let test_malformed () =
  List.iter
    (fun text ->
      match L.of_string text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [
      "";
      "{}";
      {|{"ocaml":"5.1.1"}|};
      {|{"ocaml":"5.1.1","rows":[{"name":"w"}]}|};
      (* a count must be an integer *)
      {|{"ocaml":"5.1.1","rows":[{"name":"w","counts":{"c":1.5},|}
      ^ {|"minor_words":1}]}|};
    ]

let () =
  Alcotest.run "bench"
    [
      ( "work ledger",
        [
          Alcotest.test_case "equal ledger passes" `Quick test_equal;
          Alcotest.test_case "changed count" `Quick test_count_changed;
          Alcotest.test_case "words above the band" `Quick test_words_up;
          Alcotest.test_case "words below the band" `Quick test_words_down;
          Alcotest.test_case "another OCaml" `Quick test_toolchain;
          Alcotest.test_case "missing or new row or counter" `Quick
            test_missing;
          Alcotest.test_case "every moved row named" `Quick
            test_every_row_named;
          Alcotest.test_case "JSON round trip" `Quick test_round_trip;
          Alcotest.test_case "malformed ledger" `Quick test_malformed;
        ] );
    ]
