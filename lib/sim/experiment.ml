module J = Trace.Json

type cell = {
  delivery : Stats.Summary.t;
  load : Stats.Summary.t;
  latency : Stats.Summary.t;
  mac_drops : Stats.Summary.t;
  seqno : Stats.Summary.t;
  mutable max_denominator : int;
  mutable label_width_bits : int;  (** campaign-wide high-water mark *)
  mutable label_resets : int;
}

type key = { protocol : Config.protocol; pause : float; trial : int }

type t = {
  base : Config.t;
  protocols : Config.protocol list;
  pauses : float list;
  trials : int;
  cells : (Config.protocol * float, cell) Hashtbl.t;
  mutable engine_events : int;
  mutable failures : (key * Supervisor.failure) list;
}

exception Resume_error of string

let () =
  Printexc.register_printer (function
    | Resume_error m -> Some ("Resume_error: " ^ m)
    | _ -> None)

let fresh_cell () =
  {
    delivery = Stats.Summary.create ();
    load = Stats.Summary.create ();
    latency = Stats.Summary.create ();
    mac_drops = Stats.Summary.create ();
    seqno = Stats.Summary.create ();
    max_denominator = 0;
    label_width_bits = 0;
    label_resets = 0;
  }

let cell t protocol pause =
  match Hashtbl.find_opt t.cells (protocol, pause) with
  | Some c -> c
  | None ->
      let c = fresh_cell () in
      Hashtbl.replace t.cells (protocol, pause) c;
      c

let record c (r : Metrics.result) =
  Stats.Summary.add c.delivery r.Metrics.delivery_ratio;
  Stats.Summary.add c.load r.Metrics.network_load;
  Stats.Summary.add c.latency r.Metrics.latency;
  Stats.Summary.add c.mac_drops r.Metrics.mac_drops_per_node;
  Stats.Summary.add c.seqno r.Metrics.avg_seqno;
  if r.Metrics.max_denominator > c.max_denominator then
    c.max_denominator <- r.Metrics.max_denominator;
  if r.Metrics.label_width_bits > c.label_width_bits then
    c.label_width_bits <- r.Metrics.label_width_bits;
  c.label_resets <- c.label_resets + r.Metrics.label_resets

(* ------------------------------------------------------------------ *)
(* Checkpoint journal codec. The journal is human-readable JSONL — one
   header line, then one line per resolved cell — but resume must be
   BYTE-identical to a straight-through run, and the decimal float
   rendering of {!Trace.Json} does not round-trip doubles. So every float
   field is carried twice: readable in ["result"], exact IEEE-754 bits
   (hex) in ["fbits"], and the decoder reads the bits. *)

exception Corrupt of string

let jget name json =
  match J.member name json with
  | Some v -> v
  | None -> raise (Corrupt ("missing member " ^ name))

let jint name json =
  match jget name json with
  | J.Int i -> i
  | _ -> raise (Corrupt (name ^ ": expected an integer"))

let jstr name json =
  match jget name json with
  | J.String s -> s
  | _ -> raise (Corrupt (name ^ ": expected a string"))

let jbool name json =
  match jget name json with
  | J.Bool b -> b
  | _ -> raise (Corrupt (name ^ ": expected a bool"))

let jfloat name json =
  match jget name json with
  | J.Float f -> f
  | J.Int i -> float_of_int i
  | _ -> raise (Corrupt (name ^ ": expected a number"))

let float_fields (r : Metrics.result) =
  [
    ("delivery_ratio", r.Metrics.delivery_ratio);
    ("network_load", r.Metrics.network_load);
    ("latency", r.Metrics.latency);
    ("mac_drops_per_node", r.Metrics.mac_drops_per_node);
    ("avg_seqno", r.Metrics.avg_seqno);
    ("recovery_mean", r.Metrics.recovery_mean);
    ("recovery_max", r.Metrics.recovery_max);
  ]

let fbits_json r =
  J.Obj
    (List.map
       (fun (k, v) ->
         (k, J.String (Printf.sprintf "%016Lx" (Int64.bits_of_float v))))
       (float_fields r))

let jfloat_bits fbits name =
  match Int64.of_string_opt ("0x" ^ jstr name fbits) with
  | Some bits -> Int64.float_of_bits bits
  | None -> raise (Corrupt (name ^ ": bad float bits"))

let key_json k =
  J.Obj
    [
      ("protocol", J.String (Config.protocol_name k.protocol));
      ("pause", J.Float k.pause);
      ("trial", J.Int k.trial);
    ]

let record_json key outcome =
  match outcome with
  | Ok r ->
      J.Obj
        [
          ("cell", key_json key);
          ("status", J.String "ok");
          ("result", Metrics.result_json r);
          ("fbits", fbits_json r);
        ]
  | Error f ->
      J.Obj
        [
          ("cell", key_json key);
          ("status", J.String "failed");
          ("failure", Supervisor.failure_to_json f);
        ]

let decode_result record =
  let rj = jget "result" record in
  let fb = jget "fbits" record in
  {
    Metrics.sent = jint "sent" rj;
    delivered = jint "delivered" rj;
    delivery_ratio = jfloat_bits fb "delivery_ratio";
    control_tx = jint "control_tx" rj;
    network_load = jfloat_bits fb "network_load";
    latency = jfloat_bits fb "latency";
    mac_drops_per_node = jfloat_bits fb "mac_drops_per_node";
    collisions = jint "collisions" rj;
    data_tx = jint "data_tx" rj;
    drop_queue_full = jint "drop_queue_full" rj;
    drop_retry = jint "drop_retry" rj;
    avg_seqno = jfloat_bits fb "avg_seqno";
    max_seqno = jint "max_seqno" rj;
    seqno_resets = jint "seqno_resets" rj;
    max_denominator = jint "max_denominator" rj;
    label_width_bits = jint "label_width_bits" rj;
    label_resets = jint "label_resets" rj;
    drop_reasons =
      (match jget "drop_reasons" rj with
      | J.Obj members ->
          List.map
            (function
              | k, J.Int n -> (k, n)
              | _ -> raise (Corrupt "drop_reasons: expected integer counts"))
            members
      | _ -> raise (Corrupt "drop_reasons: expected an object"));
    fault_events = jint "fault_events" rj;
    fault_frames_blocked = jint "fault_frames_blocked" rj;
    recoveries = jint "recoveries" rj;
    recovery_mean = jfloat_bits fb "recovery_mean";
    recovery_max = jfloat_bits fb "recovery_max";
    engine_events = jint "engine_events" rj;
  }

let decode_failure fj =
  {
    Supervisor.attempts = jint "attempts" fj;
    timed_out = jbool "timed_out" fj;
    error = jstr "error" fj;
    backtrace = jstr "backtrace" fj;
  }

let decode_record json =
  let cj = jget "cell" json in
  let protocol =
    let name = jstr "protocol" cj in
    match Config.protocol_of_name name with
    | Some p -> p
    | None -> raise (Corrupt ("unknown protocol " ^ name))
  in
  let key = { protocol; pause = jfloat "pause" cj; trial = jint "trial" cj } in
  match jstr "status" json with
  | "ok" -> (key, Ok (decode_result json))
  | "failed" -> (key, Error (decode_failure (jget "failure" json)))
  | s -> raise (Corrupt ("unknown cell status " ^ s))

let header_json ~base ~protocols ~pauses ~trials ~pause_scale =
  J.Obj
    [
      ("schema", J.String "manet-sim/journal-v2");
      ("config", Config.to_json base);
      ( "protocols",
        J.List (List.map (fun p -> J.String (Config.protocol_name p)) protocols)
      );
      ("pauses", J.List (List.map (fun p -> J.Float p) pauses));
      ("trials", J.Int trials);
      ("pause_scale", J.Float pause_scale);
    ]

(* Open (or create) the checkpoint, verify its header describes THIS
   campaign, and index the already-resolved cells. A journal written for a
   different configuration would silently graft foreign results into the
   sweep — that is a hard error, not a resume. *)
let load_checkpoint path ~header =
  match Trace.Journal.resume path with
  | Error e -> raise (Resume_error e)
  | Ok ([], journal) ->
      Trace.Journal.append journal header;
      (Hashtbl.create 16, journal)
  | Ok (first :: records, journal) ->
      if J.to_string first <> J.to_string header then
        raise
          (Resume_error
             (path
            ^ ": journal header does not match this campaign's configuration"));
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun r ->
          match decode_record r with
          | key, outcome -> Hashtbl.replace tbl key outcome
          | exception Corrupt m -> raise (Resume_error (path ^ ": " ^ m)))
        records;
      (tbl, journal)

(* ------------------------------------------------------------------ *)

let run ?(policy = Supervisor.fail_fast) ?checkpoint ?sabotage ?meter ~jobs
    ~pause_scale ~base ~protocols ~pauses ~trials ~progress () =
  let t =
    { base; protocols; pauses; trials; cells = Hashtbl.create 64;
      engine_events = 0; failures = [] }
  in
  (* one array slot per (pause, trial, protocol) cell, laid out in the
     sequential iteration order; workers race over the slots but the merge
     below replays them in this canonical order, so every Summary sees the
     same adds in the same sequence and the report stays byte-identical
     whatever [jobs] is *)
  let specs =
    Array.of_list
      (List.concat_map
         (fun pause ->
           List.concat_map
             (fun trial ->
               List.map (fun protocol -> (pause, trial, protocol)) protocols)
             (List.init trials Fun.id))
         pauses)
  in
  let key_of (pause, trial, protocol) = { protocol; pause; trial } in
  let header = header_json ~base ~protocols ~pauses ~trials ~pause_scale in
  let journaled, journal =
    match checkpoint with
    | None -> (Hashtbl.create 0, None)
    | Some path ->
        let tbl, j = load_checkpoint path ~header in
        (tbl, Some j)
  in
  let pending =
    Array.of_list
      (List.filter
         (fun spec -> not (Hashtbl.mem journaled (key_of spec)))
         (Array.to_list specs))
  in
  if Hashtbl.length journaled > 0 then begin
    progress
      (Printf.sprintf "resume: %d of %d cells restored from the journal"
         (Array.length specs - Array.length pending)
         (Array.length specs));
    (* restored cells advance the meter immediately (no fresh events) *)
    match meter with
    | Some m ->
        for _ = 1 to Array.length specs - Array.length pending do
          Obs.Progress.cell_done m ~events:0
            ~retries:(Supervisor.retries_total ())
            ~quarantined:(Supervisor.quarantined_total ())
        done
    | None -> ()
  end;
  let io_mutex = Mutex.create () in
  let spec_name (pause, trial, protocol) =
    Printf.sprintf "%s pause=%g trial=%d"
      (Config.protocol_name protocol)
      pause trial
  in
  let run_one ~attempt ~deadline (pause, trial, protocol) =
    Sabotage.arm sabotage ~protocol ~pause ~trial ~attempt ~deadline;
    let config =
      {
        base with
        Config.protocol;
        pause = pause *. pause_scale;
        seed = base.Config.seed + trial;
      }
    in
    let started = Unix.gettimeofday () in
    (* per-cell wall time and GC delta feed this worker domain's ledger —
       the raw material of the --prof per-domain telemetry *)
    let result, gc = Obs.gc_capture (fun () -> Runner.run ?deadline config) in
    Obs.cell_done ~wall:(Unix.gettimeofday () -. started) ~gc;
    let line =
      Format.asprintf "%-5s pause=%4.0f trial=%d  %a  (%.1fs)%s"
        (Config.protocol_name protocol)
        pause trial Metrics.pp_result result
        (Unix.gettimeofday () -. started)
        (if attempt = 1 then ""
         else Printf.sprintf "  [attempt %d]" attempt)
    in
    Mutex.protect io_mutex (fun () -> progress line);
    result
  in
  let on_outcome spec (outcome : (Metrics.result, Supervisor.failure) result) =
    (match meter with
    | Some m ->
        let events =
          match outcome with
          | Ok r -> r.Metrics.engine_events
          | Error _ -> 0
        in
        Obs.Progress.cell_done m ~events
          ~retries:(Supervisor.retries_total ())
          ~quarantined:(Supervisor.quarantined_total ())
    | None -> ());
    Mutex.protect io_mutex (fun () ->
        (match outcome with
        | Ok _ -> ()
        | Error f ->
            progress
              (Printf.sprintf "%s  QUARANTINED after %d attempt%s%s: %s"
                 (spec_name spec) f.Supervisor.attempts
                 (if f.Supervisor.attempts = 1 then "" else "s")
                 (if f.Supervisor.timed_out then " (timeout)" else "")
                 f.Supervisor.error));
        match journal with
        | Some j -> Trace.Journal.append j (record_json (key_of spec) outcome)
        | None -> ())
  in
  let outcomes =
    Fun.protect
      ~finally:(fun () -> Option.iter Trace.Journal.close journal)
      (fun () ->
        Supervisor.map ~on_outcome ~jobs ~policy ~name:spec_name ~run:run_one
          pending)
  in
  let fresh = Hashtbl.create 64 in
  Array.iteri
    (fun i spec -> Hashtbl.replace fresh (key_of spec) outcomes.(i))
    pending;
  (* canonical-order merge: journaled and fresh outcomes replay in the
     sequential iteration order, so reports, JSON and the failure list are
     byte-identical whatever [jobs] was and however the campaign was
     interrupted and resumed *)
  Array.iter
    (fun spec ->
      let key = key_of spec in
      let outcome =
        match Hashtbl.find_opt journaled key with
        | Some o -> o
        | None -> Hashtbl.find fresh key
      in
      match outcome with
      | Ok result ->
          record (cell t key.protocol key.pause) result;
          t.engine_events <- t.engine_events + result.Metrics.engine_events
      | Error f -> t.failures <- (key, f) :: t.failures)
    specs;
  t.failures <- List.rev t.failures;
  t

let overall t protocol =
  let delivery = Stats.Summary.create () in
  let load = Stats.Summary.create () in
  let latency = Stats.Summary.create () in
  List.iter
    (fun pause ->
      match Hashtbl.find_opt t.cells (protocol, pause) with
      | None -> ()
      | Some c ->
          Stats.Summary.merge delivery c.delivery;
          Stats.Summary.merge load c.load;
          Stats.Summary.merge latency c.latency)
    t.pauses;
  (delivery, load, latency)
