(* Text expositions of an observability snapshot: Prometheus 0.0.4 text
   format for external scrapers, plus the one stable stderr engine-stats
   line that check.sh and humans both read. *)

let buf_add = Buffer.add_string

(* Prometheus metric names allow [a-zA-Z0-9_:]; label values get the
   standard backslash escapes. *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> buf_add b "\\\\"
      | '"' -> buf_add b "\\\""
      | '\n' -> buf_add b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let seconds ns = Printf.sprintf "%.9f" (float_of_int ns /. 1e9)

let family b ~name ~help ~kind =
  buf_add b (Printf.sprintf "# HELP %s %s\n" name help);
  buf_add b (Printf.sprintf "# TYPE %s %s\n" name kind)

let prometheus (s : Core.snapshot) =
  let b = Buffer.create 4096 in
  if s.Core.spans <> [] then begin
    family b ~name:"manet_span_seconds_total"
      ~help:"Cumulative wall-clock time inside each profiling span."
      ~kind:"counter";
    List.iter
      (fun d ->
        buf_add b
          (Printf.sprintf "manet_span_seconds_total{span=\"%s\"} %s\n"
             (escape_label d.Core.dist_name)
             (seconds d.Core.dist_total)))
      s.Core.spans;
    family b ~name:"manet_span_calls_total"
      ~help:"Number of times each profiling span was entered."
      ~kind:"counter";
    List.iter
      (fun d ->
        buf_add b
          (Printf.sprintf "manet_span_calls_total{span=\"%s\"} %d\n"
             (escape_label d.Core.dist_name)
             d.Core.dist_count))
      s.Core.spans;
    family b ~name:"manet_span_seconds"
      ~help:"Per-call wall-clock quantile estimates (log2 bucket floors)."
      ~kind:"summary";
    List.iter
      (fun d ->
        List.iter
          (fun (q, p) ->
            buf_add b
              (Printf.sprintf
                 "manet_span_seconds{span=\"%s\",quantile=\"%s\"} %s\n"
                 (escape_label d.Core.dist_name)
                 q
                 (seconds (Core.percentile d p))))
          [ ("0.5", 0.5); ("0.99", 0.99) ])
      s.Core.spans
  end;
  if s.Core.hists <> [] then begin
    family b ~name:"manet_histogram_observations_total"
      ~help:"Observation count per size/latency histogram." ~kind:"counter";
    List.iter
      (fun d ->
        buf_add b
          (Printf.sprintf
             "manet_histogram_observations_total{histogram=\"%s\"} %d\n"
             (escape_label d.Core.dist_name)
             d.Core.dist_count))
      s.Core.hists;
    family b ~name:"manet_histogram_sum"
      ~help:"Sum of observed values per histogram." ~kind:"counter";
    List.iter
      (fun d ->
        buf_add b
          (Printf.sprintf "manet_histogram_sum{histogram=\"%s\"} %d\n"
             (escape_label d.Core.dist_name)
             d.Core.dist_total))
      s.Core.hists
  end;
  List.iter
    (fun (name, v) ->
      let name = "manet_" ^ sanitize name ^ "_total" in
      family b ~name ~help:"Monotonic event counter." ~kind:"counter";
      buf_add b (Printf.sprintf "%s %d\n" name v))
    s.Core.counters;
  if s.Core.workers <> [] then begin
    let worker_family name help value =
      family b ~name ~help ~kind:"counter";
      List.iter
        (fun w ->
          buf_add b
            (Printf.sprintf "%s{domain=\"%d\"} %s\n" name w.Core.w_domain
               (value w)))
        s.Core.workers
    in
    worker_family "manet_worker_cells_total"
      "Campaign cells completed per worker domain." (fun w ->
        string_of_int w.Core.w_cells);
    worker_family "manet_worker_busy_seconds_total"
      "Wall-clock time spent running cells per worker domain." (fun w ->
        seconds w.Core.w_busy_ns);
    worker_family "manet_worker_minor_collections_total"
      "Minor GC collections incurred by cells per worker domain." (fun w ->
        string_of_int w.Core.w_minor_collections);
    worker_family "manet_worker_major_collections_total"
      "Major GC collections incurred by cells per worker domain." (fun w ->
        string_of_int w.Core.w_major_collections);
    worker_family "manet_worker_minor_words_total"
      "Words allocated on the minor heap by cells per worker domain."
      (fun w -> string_of_int w.Core.w_minor_words);
    worker_family "manet_worker_promoted_words_total"
      "Words promoted to the major heap by cells per worker domain."
      (fun w -> string_of_int w.Core.w_promoted_words);
    worker_family "manet_worker_major_words_total"
      "Words allocated directly on the major heap by cells per worker domain."
      (fun w -> string_of_int w.Core.w_major_words)
  end;
  Buffer.contents b

let write_prometheus path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (prometheus s))

(* The historical engine-stats line (PR 2). check.sh and EXPERIMENTS.md
   quote this format; keep it byte-stable. *)
let engine_line ~events ~wall =
  Printf.sprintf "engine: %d events in %.2f s wall (%.0f events/s)" events
    wall
    (if wall > 0. then float_of_int events /. wall else 0.)
