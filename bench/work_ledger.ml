module J = Trace.Json

type row = { name : string; counts : (string * int) list; words : float }
type t = { ocaml : string; rows : row list }

let band = 0.01
let regenerate = "dune exec bench/main.exe -- work"

let row_json r =
  J.Obj
    [
      ("name", J.String r.name);
      ("counts", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) r.counts));
      ("minor_words", J.Float r.words);
    ]

let to_string t =
  Printf.sprintf
    "{\"schema\":\"bench-work/1\",\"ocaml\":%s,\"rows\":[\n%s\n]}\n"
    (J.to_string (J.String t.ocaml))
    (String.concat ",\n" (List.map (fun r -> J.to_string (row_json r)) t.rows))

exception Malformed of string

let of_string s =
  let fail what = raise (Malformed what) in
  let field key j =
    match J.member key j with Some v -> v | None -> fail ("missing " ^ key)
  in
  let row j =
    let name =
      match field "name" j with J.String s -> s | _ -> fail "a row name"
    in
    let counts =
      match field "counts" j with
      | J.Obj kvs ->
          List.map
            (function
              | k, J.Int n -> (k, n) | k, _ -> fail (name ^ ": counter " ^ k))
            kvs
      | _ -> fail (name ^ ": counts")
    in
    let words =
      match field "minor_words" j with
      | J.Float w -> w
      | J.Int n -> float_of_int n
      | _ -> fail (name ^ ": minor_words")
    in
    { name; counts; words }
  in
  match J.parse s with
  | Error e -> Error e
  | Ok json -> (
      try
        let ocaml =
          match field "ocaml" json with J.String v -> v | _ -> fail "ocaml"
        in
        let rows =
          match field "rows" json with
          | J.List rs -> List.map row rs
          | _ -> fail "rows"
        in
        Ok { ocaml; rows }
      with Malformed what -> Error ("malformed ledger: " ^ what))

let show w =
  if Float.is_integer w then Printf.sprintf "%.0f" w
  else Printf.sprintf "%.2f" w

let words_change (c : row) (f : row) =
  if c.words = 0.0 then if f.words = 0.0 then 0.0 else infinity
  else (f.words -. c.words) /. c.words

let words_line (c : row) (f : row) verdict =
  Printf.sprintf "%s: minor words %s -> %s (%+.2f%%), %s" c.name
    (show c.words) (show f.words)
    (100.0 *. words_change c f)
    verdict

let words_moved (c : row) (f : row) =
  let change = words_change c f in
  let moved verdict = [ words_line c f verdict ] in
  if change > band then
    moved
      (Printf.sprintf "above the +%g%% band: an allocation regression"
         (100.0 *. band))
  else if change < -.band then
    moved
      (Printf.sprintf
         "below the -%g%% band: if the saving is intended, regenerate the \
          ledger with `%s`"
         (100.0 *. band) regenerate)
  else []

let row_moved (c : row) (f : row) =
  let changed =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k f.counts with
        | None -> Some (Printf.sprintf "%s: %s missing from this run" c.name k)
        | Some v' when v' <> v ->
            Some (Printf.sprintf "%s: %s %d -> %d" c.name k v v')
        | Some _ -> None)
      c.counts
  in
  let added =
    List.filter_map
      (fun (k, v) ->
        if List.mem_assoc k c.counts then None
        else
          Some (Printf.sprintf "%s: %s = %d is not in the ledger" c.name k v))
      f.counts
  in
  changed @ added @ words_moved c f

let find rows name = List.find_opt (fun r -> r.name = name) rows

let drift ~committed ~fresh =
  if committed.ocaml <> fresh.ocaml then []
  else
    List.filter_map
      (fun c ->
        match find fresh.rows c.name with
        | Some f when f.words <> c.words
                      && Float.abs (words_change c f) <= band ->
            Some
              (words_line c f
                 (Printf.sprintf "inside the %g%% band" (100.0 *. band)))
        | _ -> None)
      committed.rows

let check ~committed ~fresh =
  if committed.ocaml <> fresh.ocaml then
    [
      Printf.sprintf
        "the ledger was recorded with OCaml %s and this build uses %s: \
         regenerate it with `%s`"
        committed.ocaml fresh.ocaml regenerate;
    ]
  else
    List.concat_map
      (fun c ->
        match find fresh.rows c.name with
        | None -> [ c.name ^ ": missing from this run" ]
        | Some f -> row_moved c f)
      committed.rows
    @ List.filter_map
        (fun f ->
          match find committed.rows f.name with
          | None -> Some (f.name ^ ": not in the ledger")
          | Some _ -> None)
        fresh.rows
