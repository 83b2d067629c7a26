(* single-run rendering shared by `manet_sim run`, `manet_sim check` and
   the determinism tests (which compare this output byte for byte) *)
let run ppf (r : Metrics.result) =
  Format.fprintf ppf "%a@." Metrics.pp_result r;
  List.iter
    (fun (reason, count) -> Format.fprintf ppf "  drop[%s] = %d@." reason count)
    r.Metrics.drop_reasons;
  if r.Metrics.fault_events > 0 then
    Format.fprintf ppf "faults: %d events injected, %d frames blocked@."
      r.Metrics.fault_events r.Metrics.fault_frames_blocked;
  (* outages also open and heal on clean runs (mobility breaks routes), so
     the recovery line is keyed on recoveries, not on injected faults *)
  if r.Metrics.recoveries > 0 then
    Format.fprintf ppf
      "route recovery: %d outages healed, mean %.3f s, max %.3f s@."
      r.Metrics.recoveries r.Metrics.recovery_mean r.Metrics.recovery_max;
  (* only SRP adopts labels, and any adopted label has a positive width *)
  if r.Metrics.label_width_bits > 0 then
    Format.fprintf ppf
      "labels: max denominator %d, widest label %d bits, %d label-driven \
       resets@."
      r.Metrics.max_denominator r.Metrics.label_width_bits
      r.Metrics.label_resets

let pp_summary ppf s =
  Format.fprintf ppf "%7.3f ±%6.3f" (Stats.Summary.mean s)
    (Stats.Summary.ci95 s)

let table1 ppf t =
  Format.fprintf ppf
    "Table I: performance averaged over all pause times (mean ± 95%% CI)@.";
  Format.fprintf ppf "%-9s %-17s %-17s %-17s@." "protocol" "deliv. ratio"
    "net load" "latency (s)";
  List.iter
    (fun protocol ->
      let delivery, load, latency = Experiment.overall t protocol in
      Format.fprintf ppf "%-9s %a   %a   %a@."
        (Config.protocol_name protocol)
        pp_summary delivery pp_summary load pp_summary latency)
    t.Experiment.protocols

let figure ppf t ~title ~protocols ~value =
  Format.fprintf ppf "%s@." title;
  Format.fprintf ppf "%-7s" "pause";
  List.iter
    (fun p -> Format.fprintf ppf " %12s" (Config.protocol_name p))
    protocols;
  Format.fprintf ppf "@.";
  List.iter
    (fun pause ->
      Format.fprintf ppf "%-7.0f" pause;
      List.iter
        (fun p ->
          let c = Experiment.cell t p pause in
          Format.fprintf ppf " %12.3f" (value c))
        protocols;
      Format.fprintf ppf "@.")
    t.Experiment.pauses

let fig3 ppf t =
  figure ppf t ~title:"Fig. 3: average MAC layer drops per node vs pause time"
    ~protocols:t.Experiment.protocols
    ~value:(fun c -> Stats.Summary.mean c.Experiment.mac_drops)

let fig4 ppf t =
  figure ppf t ~title:"Fig. 4: delivery ratio vs pause time"
    ~protocols:t.Experiment.protocols
    ~value:(fun c -> Stats.Summary.mean c.Experiment.delivery)

let fig5 ppf t =
  figure ppf t
    ~title:"Fig. 5: network load vs pause time (plot on a log axis)"
    ~protocols:t.Experiment.protocols
    ~value:(fun c -> Stats.Summary.mean c.Experiment.load)

let fig6 ppf t =
  figure ppf t ~title:"Fig. 6: data latency (seconds) vs pause time"
    ~protocols:t.Experiment.protocols
    ~value:(fun c -> Stats.Summary.mean c.Experiment.latency)

let fig7 ppf t =
  let protocols =
    List.filter
      (fun p -> List.mem p Config.fig7_protocols)
      t.Experiment.protocols
  in
  figure ppf t
    ~title:"Fig. 7: average node sequence number vs pause time (zero-based)"
    ~protocols
    ~value:(fun c -> Stats.Summary.mean c.Experiment.seqno);
  if List.mem Config.Srp protocols then begin
    let max_denom, width, resets =
      List.fold_left
        (fun (d, w, r) pause ->
          let c = Experiment.cell t Config.Srp pause in
          ( Stdlib.max d c.Experiment.max_denominator,
            Stdlib.max w c.Experiment.label_width_bits,
            r + c.Experiment.label_resets ))
        (0, 0, 0) t.Experiment.pauses
    in
    Format.fprintf ppf
      "SRP max feasible-distance denominator over the campaign: %d (paper: \
       stayed under 840 million; 32-bit bound is %d)@."
      max_denom Slr.Fraction.bound;
    Format.fprintf ppf
      "SRP label set %s: max encoded label width %d bits, %d label-driven \
       resets@."
      (Slr.Label_set.name (Config.labels t.Experiment.base))
      width resets
  end

(* Quarantined cells, printed only when there are any: a clean campaign's
   report stays byte-identical to pre-supervisor builds. *)
let supervision ppf (t : Experiment.t) =
  match t.Experiment.failures with
  | [] -> ()
  | failures ->
      let total =
        List.length t.Experiment.protocols
        * List.length t.Experiment.pauses
        * t.Experiment.trials
      in
      Format.fprintf ppf "Supervision: %d of %d cells quarantined@."
        (List.length failures) total;
      List.iter
        (fun (key, f) ->
          Format.fprintf ppf "  %-5s pause=%4.0f trial=%d  %s after %d attempt%s: %s@."
            (Config.protocol_name key.Experiment.protocol)
            key.Experiment.pause key.Experiment.trial
            (if f.Supervisor.timed_out then "timed out" else "crashed")
            f.Supervisor.attempts
            (if f.Supervisor.attempts = 1 then "" else "s")
            f.Supervisor.error)
        failures

(* Machine-readable campaign export: every (protocol, pause) cell with the
   per-metric summaries that the text figures print, plus the scenario. *)
let campaign_json (t : Experiment.t) =
  let module J = Trace.Json in
  let summary s =
    J.Obj
      [
        ("mean", J.Float (Stats.Summary.mean s));
        ("ci95", J.Float (Stats.Summary.ci95 s));
        ("count", J.Int (Stats.Summary.count s));
      ]
  in
  let cells =
    List.concat_map
      (fun protocol ->
        List.map
          (fun pause ->
            let c = Experiment.cell t protocol pause in
            J.Obj
              [
                ("protocol", J.String (Config.protocol_name protocol));
                ("pause", J.Float pause);
                ("delivery_ratio", summary c.Experiment.delivery);
                ("network_load", summary c.Experiment.load);
                ("latency", summary c.Experiment.latency);
                ("mac_drops_per_node", summary c.Experiment.mac_drops);
                ("avg_seqno", summary c.Experiment.seqno);
                ("max_denominator", J.Int c.Experiment.max_denominator);
                ("label_width_bits", J.Int c.Experiment.label_width_bits);
                ("label_resets", J.Int c.Experiment.label_resets);
              ])
          t.Experiment.pauses)
      t.Experiment.protocols
  in
  J.Obj
    [
      ("schema", J.String "manet-sim/campaign-v2");
      ("config", Config.to_json t.Experiment.base);
      ( "protocols",
        J.List
          (List.map
             (fun p -> J.String (Config.protocol_name p))
             t.Experiment.protocols) );
      ("pauses", J.List (List.map (fun p -> J.Float p) t.Experiment.pauses));
      ("trials", J.Int t.Experiment.trials);
      ("cells", J.List cells);
      ( "failures",
        J.List
          (List.map
             (fun (key, f) ->
               match Supervisor.failure_to_json f with
               | J.Obj members ->
                   J.Obj
                     (( "protocol",
                        J.String (Config.protocol_name key.Experiment.protocol)
                      )
                     :: ("pause", J.Float key.Experiment.pause)
                     :: ("trial", J.Int key.Experiment.trial)
                     :: members)
               | other -> other)
             t.Experiment.failures) );
    ]

(* ------------------------------------------------------------------ *)
(* --prof rendering. The profile is appended by the CLI layer, never by
   [campaign_json]/[run_json] themselves: unprofiled envelopes must stay
   byte-identical to pre-observability builds. *)

let profile_json (s : Obs.snapshot) =
  let module J = Trace.Json in
  let dist_json (d : Obs.dist) =
    J.Obj
      [
        ("name", J.String d.Obs.dist_name);
        ("count", J.Int d.Obs.dist_count);
        ("total_ns", J.Int d.Obs.dist_total);
        ("p50_ns", J.Int (Obs.percentile d 0.5));
        ("p99_ns", J.Int (Obs.percentile d 0.99));
      ]
  in
  let hist_json (d : Obs.dist) =
    J.Obj
      [
        ("name", J.String d.Obs.dist_name);
        ("count", J.Int d.Obs.dist_count);
        ("sum", J.Int d.Obs.dist_total);
        ("p50", J.Int (Obs.percentile d 0.5));
        ("p99", J.Int (Obs.percentile d 0.99));
      ]
  in
  let worker_json (w : Obs.worker) =
    J.Obj
      [
        ("domain", J.Int w.Obs.w_domain);
        ("cells", J.Int w.Obs.w_cells);
        ("busy_seconds", J.Float (float_of_int w.Obs.w_busy_ns /. 1e9));
        ("minor_collections", J.Int w.Obs.w_minor_collections);
        ("major_collections", J.Int w.Obs.w_major_collections);
        ("minor_words", J.Int w.Obs.w_minor_words);
        ("promoted_words", J.Int w.Obs.w_promoted_words);
        ("major_words", J.Int w.Obs.w_major_words);
      ]
  in
  J.Obj
    [
      ("spans", J.List (List.map dist_json s.Obs.spans));
      ("histograms", J.List (List.map hist_json s.Obs.hists));
      ( "counters",
        J.Obj (List.map (fun (k, v) -> (k, J.Int v)) s.Obs.counters) );
      ("workers", J.List (List.map worker_json s.Obs.workers));
    ]

let add_profile json snapshot =
  let module J = Trace.Json in
  match json with
  | J.Obj members ->
      J.Obj (members @ [ ("perf_profile", profile_json snapshot) ])
  | other -> other

let pp_ns ppf ns =
  if ns >= 1_000_000_000 then
    Format.fprintf ppf "%8.2f s" (float_of_int ns /. 1e9)
  else if ns >= 1_000_000 then
    Format.fprintf ppf "%7.2f ms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then
    Format.fprintf ppf "%7.2f us" (float_of_int ns /. 1e3)
  else Format.fprintf ppf "%7d ns" ns

let profile ppf (s : Obs.snapshot) =
  Format.fprintf ppf "Profile (wall-clock spans, outside the DES)@.";
  Format.fprintf ppf "  %-26s %10s %11s %10s %10s@." "span" "calls"
    "total" "p50" "p99";
  List.iter
    (fun (d : Obs.dist) ->
      Format.fprintf ppf "  %-26s %10d %a %a %a@." d.Obs.dist_name
        d.Obs.dist_count pp_ns d.Obs.dist_total pp_ns
        (Obs.percentile d 0.5) pp_ns
        (Obs.percentile d 0.99))
    (List.sort
       (fun (a : Obs.dist) b -> compare b.Obs.dist_total a.Obs.dist_total)
       s.Obs.spans);
  List.iter
    (fun (d : Obs.dist) ->
      Format.fprintf ppf
        "  histogram %-20s count %d sum %d p50 %d p99 %d@." d.Obs.dist_name
        d.Obs.dist_count d.Obs.dist_total (Obs.percentile d 0.5)
        (Obs.percentile d 0.99))
    s.Obs.hists;
  List.iter
    (fun (w : Obs.worker) ->
      Format.fprintf ppf
        "  worker domain %d: %d cells, %.2f s busy, GC %d minor / %d \
         major, %.1fM minor words, %.1fM promoted@."
        w.Obs.w_domain w.Obs.w_cells
        (float_of_int w.Obs.w_busy_ns /. 1e9)
        w.Obs.w_minor_collections w.Obs.w_major_collections
        (float_of_int w.Obs.w_minor_words /. 1e6)
        (float_of_int w.Obs.w_promoted_words /. 1e6))
    s.Obs.workers;
  if s.Obs.counters <> [] then begin
    Format.fprintf ppf "  counters:";
    List.iter
      (fun (k, v) -> Format.fprintf ppf " %s=%d" k v)
      s.Obs.counters;
    Format.fprintf ppf "@."
  end

let run_json config (r : Metrics.result) =
  let module J = Trace.Json in
  J.Obj
    [
      ("schema", J.String "manet-sim/run-v2");
      ("config", Config.to_json config);
      ("result", Metrics.result_json r);
    ]

let all ppf t =
  table1 ppf t;
  Format.pp_print_newline ppf ();
  fig3 ppf t;
  Format.pp_print_newline ppf ();
  fig4 ppf t;
  Format.pp_print_newline ppf ();
  fig5 ppf t;
  Format.pp_print_newline ppf ();
  fig6 ppf t;
  Format.pp_print_newline ppf ();
  fig7 ppf t;
  if t.Experiment.failures <> [] then begin
    Format.pp_print_newline ppf ();
    supervision ppf t
  end
