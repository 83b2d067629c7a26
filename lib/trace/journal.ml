type t = { oc : out_channel; mutable closed : bool }

(* every open journal is flushed on exit, so abnormal termination that
   skips [close] still leaves a fully flushed, parseable prefix *)
let live : t list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun t -> if not t.closed then try flush t.oc with Sys_error _ -> ())
        !live)

let read_lines path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  List.filter
    (fun line -> String.trim line <> "")
    (String.split_on_char '\n' text)

(* Valid prefix of the journal: every line must parse except the last,
   which a mid-write kill may have torn and is then dropped. *)
let parse_prefix path lines =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | [ last ] -> (
        match Json.parse last with
        | Ok json -> Ok (List.rev (json :: acc))
        | Error _ -> Ok (List.rev acc))
    | line :: rest -> (
        match Json.parse line with
        | Ok json -> go (json :: acc) rest
        | Error e ->
            Error (Printf.sprintf "%s: corrupt journal line: %s" path e))
  in
  go [] lines

let load path =
  if not (Sys.file_exists path) then Ok []
  else parse_prefix path (read_lines path)

(* counts every journal line hitting disk (resume rewrites included), for
   --prof and the Obs exports *)
let lines_counter = Obs.counter "journal.lines"

let write_line oc json =
  output_string oc (Json.to_string json);
  output_char oc '\n';
  Obs.incr lines_counter

let resume path =
  let lines = if Sys.file_exists path then read_lines path else [] in
  match parse_prefix path lines with
  | Error _ as e -> e
  | Ok records ->
      (* rewrite the exact valid prefix: a torn tail must not prepend
         itself to the next appended record *)
      let oc = open_out_bin path in
      List.iter (write_line oc) records;
      flush oc;
      let t = { oc; closed = false } in
      live := t :: !live;
      Ok (records, t)

let append t json =
  if t.closed then invalid_arg "Journal.append: closed";
  write_line t.oc json;
  flush t.oc

let close t =
  if not t.closed then begin
    t.closed <- true;
    live := List.filter (fun u -> u != t) !live;
    close_out_noerr t.oc
  end
