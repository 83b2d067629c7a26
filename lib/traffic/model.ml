(* Pluggable traffic models. Every model compiles to a {!Cbr.flow} list —
   the packet scheduler, the metrics ledger and the (flow, seq) identity
   space are shared — so swapping the model swaps *which* packets exist,
   never how they are accounted. The Cbr instance calls {!Cbr.generate}
   with the undivided traffic substream, byte-identical to the historical
   runner. *)

type id = Cbr_model | Bursty | Convergecast | Flash

let all = [ Cbr_model; Bursty; Convergecast; Flash ]

let default = Cbr_model

let name = function
  | Cbr_model -> "cbr"
  | Bursty -> "bursty"
  | Convergecast -> "convergecast"
  | Flash -> "flash-crowd"

(* the fixed many-to-one sink: every convergecast flow drains here *)
let convergecast_sink = 0

(* a back-to-back chain of flows in one slot, shared by the non-CBR
   models: [pick] draws the endpoints, [first_start] anchors the chain.
   [next_id] is shared across slots so flow ids (and the per-flow CBR
   phase keyed off them) stay globally unique, as in {!Cbr.generate}. *)
let chain ~next_id ~rng ~until ~mean_duration ~first_start ~pick () =
  let fresh start =
    let src, dst = pick () in
    let duration = Des.Rng.exponential rng ~mean:mean_duration in
    let id = !next_id in
    incr next_id;
    { Cbr.id; src; dst; start; stop = Stdlib.min until (start +. duration) }
  in
  let rec go start acc =
    if start >= until then List.rev acc
    else
      let f = fresh start in
      go f.Cbr.stop (f :: acc)
  in
  go (first_start ()) []

(* ------------------------------------------------------------------ *)
(* Bursty on/off: CBR flow chains, but each flow transmits only during
   exponential on-periods separated by exponential silences. A flow's
   bursts reuse its flow id — one conversation, gappy airtime — so the
   (flow, seq) ledger and per-flow phase stay exactly as CBR's. *)

let burst_frac = 6.0

let burst_segments ~rng ~mean_duration (f : Cbr.flow) =
  let mean = mean_duration /. burst_frac in
  let rec go t on acc =
    if t >= f.Cbr.stop then List.rev acc
    else
      let span = Des.Rng.exponential rng ~mean in
      let t' = Stdlib.min f.Cbr.stop (t +. span) in
      let acc = if on then { f with Cbr.start = t; stop = t' } :: acc else acc in
      go t' (not on) acc
  in
  go f.Cbr.start true []

let generate_bursty ~rng ~nodes ~concurrent ~from_time ~until ~mean_duration =
  let base =
    Cbr.generate
      ~rng:(Des.Rng.split rng "base")
      ~nodes ~concurrent ~from_time ~until ~mean_duration
  in
  let burst_rng = Des.Rng.split rng "bursts" in
  List.concat_map (burst_segments ~rng:burst_rng ~mean_duration) base

(* ------------------------------------------------------------------ *)

let generate id ~rng ~nodes ~concurrent ~from_time ~until ~mean_duration =
  if nodes < 2 then invalid_arg "Model.generate: need at least two nodes";
  match id with
  | Cbr_model ->
      Cbr.generate ~rng ~nodes ~concurrent ~from_time ~until ~mean_duration
  | Bursty ->
      generate_bursty ~rng ~nodes ~concurrent ~from_time ~until ~mean_duration
  | Convergecast ->
      (* many-to-one: every flow drains into the fixed sink *)
      let pick () =
        let src = 1 + Des.Rng.int rng (nodes - 1) in
        (src, convergecast_sink)
      in
      let next_id = ref 0 in
      List.concat
        (List.init concurrent (fun _ ->
             chain ~next_id ~rng ~until ~mean_duration
               ~first_start:(fun () -> from_time)
               ~pick ()))
  | Flash ->
      (* flash-crowd arrival: every slot's first flow lands in a narrow
         window just after the flash instant, then chains normally *)
      let window = 0.25 *. Stdlib.max 0.0 (until -. from_time) in
      let flash_at = from_time +. Des.Rng.float rng window in
      let jitter_mean = Stdlib.max 1e-6 ((until -. from_time) /. 50.0) in
      let pick () =
        let src = Des.Rng.int rng nodes in
        let rec dst () =
          let d = Des.Rng.int rng nodes in
          if d = src then dst () else d
        in
        (src, dst ())
      in
      let next_id = ref 0 in
      List.concat
        (List.init concurrent (fun _ ->
             chain ~next_id ~rng ~until ~mean_duration
               ~first_start:(fun () ->
                 flash_at +. Des.Rng.exponential rng ~mean:jitter_mean)
               ~pick ()))

let flash_window ~from_time ~until =
  (from_time, from_time +. (0.25 *. Stdlib.max 0.0 (until -. from_time)))
