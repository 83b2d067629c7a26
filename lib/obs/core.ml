(* Performance-observability core: a typed metrics registry (monotonic
   counters, log-bucketed histograms), wall-clock span timers for
   hot-path profiling, and a per-domain worker ledger of campaign-cell GC
   deltas.

   Determinism contract: nothing in this module draws randomness, schedules
   simulation events or touches simulation state — all timing is wall-clock
   side-state outside the DES, so a profiled run is behaviourally identical
   to an unprofiled one. When profiling is disabled (the default) every
   span/histogram operation is one atomic-flag read and allocates nothing;
   counters stay live (they are off the hot paths and the gauge sampler
   reads them even in unprofiled runs).

   Storage is domain-local: each domain lazily registers one slot table
   (via [Domain.DLS]) and mutates only its own slots, so workers never
   contend. [snapshot] sums the tables; racy int reads during a live
   campaign can lag by a few events, which only the stderr progress meter
   ever observes — exported profiles are taken after workers join. *)

let enabled_flag = Atomic.make false
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false
let enabled () = Atomic.get enabled_flag

(* wall clock in integer nanoseconds: immediate (no float boxing in slot
   arithmetic) and plenty of range (2^62 ns ~ 146 years) *)
let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* ------------------------------------------------------------------ *)
(* Registry: dense ids per metric kind, deduplicated by name. *)

type span = { span_id : int; span_name : string }
type histogram = { hist_id : int; hist_name : string }
type counter = { ctr_id : int; ctr_name : string }

let registry_mutex = Mutex.create ()
let span_defs : span list ref = ref []
let hist_defs : histogram list ref = ref []
let ctr_defs : counter list ref = ref []

let register defs find make =
  Mutex.protect registry_mutex (fun () ->
      match List.find_opt find !defs with
      | Some d -> d
      | None ->
          let d = make (List.length !defs) in
          defs := d :: !defs;
          d)

let span name =
  register span_defs
    (fun s -> s.span_name = name)
    (fun id -> { span_id = id; span_name = name })

let histogram name =
  register hist_defs
    (fun h -> h.hist_name = name)
    (fun id -> { hist_id = id; hist_name = name })

let counter name =
  register ctr_defs
    (fun c -> c.ctr_name = name)
    (fun id -> { ctr_id = id; ctr_name = name })

(* ------------------------------------------------------------------ *)
(* Log-bucketed distributions. Bucket 0 holds values <= 0; bucket i >= 1
   holds [2^(i-1), 2^i). [bucket_floor] is therefore the largest power of
   two not above any value in the bucket — the quantile estimate. *)

let bucket_count = 48

let bucket_index v =
  if v <= 0 then 0
  else begin
    let b = ref 1 and v = ref v in
    while !v > 1 do
      v := !v lsr 1;
      incr b
    done;
    if !b >= bucket_count then bucket_count - 1 else !b
  end

let bucket_floor i = if i = 0 then 0 else 1 lsl (i - 1)

(* ------------------------------------------------------------------ *)
(* Domain-local slot tables. A slot is all-int, so the hot-path mutations
   below never box. *)

type slot = {
  mutable count : int;
  mutable total : int;
  mutable t0 : int;  (* span start stamp; spans do not self-nest *)
  buckets : int array;
}

type ledger = {
  mutable cells : int;
  mutable busy_ns : int;
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable minor_words : int;
  mutable promoted_words : int;
  mutable major_words : int;
}

type local = {
  domain_id : int;
  mutable span_slots : slot array;
  mutable hist_slots : slot array;
  mutable counter_vals : int array;
  led : ledger;
}

let fresh_slot () =
  { count = 0; total = 0; t0 = 0; buckets = Array.make bucket_count 0 }

let locals : local list ref = ref []

let fresh_local () =
  let l =
    {
      domain_id = (Domain.self () :> int);
      span_slots = [||];
      hist_slots = [||];
      counter_vals = [||];
      led =
        { cells = 0; busy_ns = 0; minor_collections = 0; major_collections = 0;
          minor_words = 0; promoted_words = 0; major_words = 0 };
    }
  in
  Mutex.protect registry_mutex (fun () -> locals := l :: !locals);
  l

let dls_key = Domain.DLS.new_key fresh_local
let local () = Domain.DLS.get dls_key

let grow_slots arr id =
  let n = Stdlib.max (id + 1) ((2 * Array.length arr) + 4) in
  Array.init n (fun i -> if i < Array.length arr then arr.(i) else fresh_slot ())

let span_slot l (s : span) =
  if s.span_id < Array.length l.span_slots then l.span_slots.(s.span_id)
  else begin
    l.span_slots <- grow_slots l.span_slots s.span_id;
    l.span_slots.(s.span_id)
  end

let hist_slot l (h : histogram) =
  if h.hist_id < Array.length l.hist_slots then l.hist_slots.(h.hist_id)
  else begin
    l.hist_slots <- grow_slots l.hist_slots h.hist_id;
    l.hist_slots.(h.hist_id)
  end

let grow_ints arr id =
  let n = Stdlib.max (id + 1) ((2 * Array.length arr) + 4) in
  Array.init n (fun i -> if i < Array.length arr then arr.(i) else 0)

(* ------------------------------------------------------------------ *)
(* Hot-path operations. *)

let record_into slot v =
  slot.count <- slot.count + 1;
  slot.total <- slot.total + v;
  let b = bucket_index v in
  slot.buckets.(b) <- slot.buckets.(b) + 1

let start sp = if enabled () then (span_slot (local ()) sp).t0 <- now_ns ()

let stop sp =
  if enabled () then begin
    let slot = span_slot (local ()) sp in
    record_into slot (now_ns () - slot.t0)
  end

let record_span_ns sp ns =
  if enabled () then record_into (span_slot (local ()) sp) ns

let observe h v = if enabled () then record_into (hist_slot (local ()) h) v

let add c n =
  let l = local () in
  if c.ctr_id >= Array.length l.counter_vals then
    l.counter_vals <- grow_ints l.counter_vals c.ctr_id;
  l.counter_vals.(c.ctr_id) <- l.counter_vals.(c.ctr_id) + n

let incr c = add c 1

let counter_value c =
  let ls = Mutex.protect registry_mutex (fun () -> !locals) in
  List.fold_left
    (fun acc l ->
      if c.ctr_id < Array.length l.counter_vals then
        acc + l.counter_vals.(c.ctr_id)
      else acc)
    0 ls

(* ------------------------------------------------------------------ *)
(* Per-cell GC deltas and the worker ledger. *)

type gc_delta = {
  gc_minor_collections : int;
  gc_major_collections : int;
  gc_minor_words : int;
  gc_promoted_words : int;
  gc_major_words : int;
}

let gc_capture f =
  let a = Gc.quick_stat () in
  let result = f () in
  let b = Gc.quick_stat () in
  ( result,
    {
      gc_minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
      gc_major_collections = b.Gc.major_collections - a.Gc.major_collections;
      gc_minor_words = int_of_float (b.Gc.minor_words -. a.Gc.minor_words);
      gc_promoted_words =
        int_of_float (b.Gc.promoted_words -. a.Gc.promoted_words);
      gc_major_words = int_of_float (b.Gc.major_words -. a.Gc.major_words);
    } )

let cell_done ~wall ~gc =
  let led = (local ()).led in
  led.cells <- led.cells + 1;
  led.busy_ns <- led.busy_ns + int_of_float (wall *. 1e9);
  led.minor_collections <- led.minor_collections + gc.gc_minor_collections;
  led.major_collections <- led.major_collections + gc.gc_major_collections;
  led.minor_words <- led.minor_words + gc.gc_minor_words;
  led.promoted_words <- led.promoted_words + gc.gc_promoted_words;
  led.major_words <- led.major_words + gc.gc_major_words

(* ------------------------------------------------------------------ *)
(* Snapshots: plain data, deterministic ordering; each one sums every
   domain's tables. *)

type dist = {
  dist_name : string;
  dist_count : int;
  dist_total : int;
  dist_buckets : int array;
}

type worker = {
  w_domain : int;
  w_cells : int;
  w_busy_ns : int;
  w_minor_collections : int;
  w_major_collections : int;
  w_minor_words : int;
  w_promoted_words : int;
  w_major_words : int;
}

type snapshot = {
  spans : dist list;
  hists : dist list;
  counters : (string * int) list;
  workers : worker list;
}

let by_name a b = compare a.dist_name b.dist_name

let snapshot () =
  let span_list, hist_list, ctr_list, local_list =
    Mutex.protect registry_mutex (fun () ->
        (!span_defs, !hist_defs, !ctr_defs, !locals))
  in
  let dist_of id name slots_of =
    let count = ref 0 and total = ref 0 in
    let buckets = Array.make bucket_count 0 in
    List.iter
      (fun l ->
        let slots = slots_of l in
        if id < Array.length slots then begin
          let s = slots.(id) in
          count := !count + s.count;
          total := !total + s.total;
          Array.iteri (fun b n -> buckets.(b) <- buckets.(b) + n) s.buckets
        end)
      local_list;
    if !count = 0 then None
    else
      Some
        {
          dist_name = name;
          dist_count = !count;
          dist_total = !total;
          dist_buckets = buckets;
        }
  in
  let spans =
    List.sort by_name
      (List.filter_map
         (fun s -> dist_of s.span_id s.span_name (fun l -> l.span_slots))
         span_list)
  in
  let hists =
    List.sort by_name
      (List.filter_map
         (fun h -> dist_of h.hist_id h.hist_name (fun l -> l.hist_slots))
         hist_list)
  in
  let sum_ints id vals_of =
    List.fold_left
      (fun acc l ->
        let vals = vals_of l in
        if id < Array.length vals then acc + vals.(id) else acc)
      0 local_list
  in
  let counters =
    List.sort compare
      (List.filter_map
         (fun c ->
           let v = sum_ints c.ctr_id (fun l -> l.counter_vals) in
           if v = 0 then None else Some (c.ctr_name, v))
         ctr_list)
  in
  let workers =
    List.sort
      (fun a b -> compare a.w_domain b.w_domain)
      (List.filter_map
         (fun l ->
           if l.led.cells = 0 then None
           else
             Some
               {
                 w_domain = l.domain_id;
                 w_cells = l.led.cells;
                 w_busy_ns = l.led.busy_ns;
                 w_minor_collections = l.led.minor_collections;
                 w_major_collections = l.led.major_collections;
                 w_minor_words = l.led.minor_words;
                 w_promoted_words = l.led.promoted_words;
                 w_major_words = l.led.major_words;
               })
         local_list)
  in
  { spans; hists; counters; workers }

(* Quantile estimate: the bucket floor at rank ceil(p * count) — within a
   factor of two below the true quantile, which is all span localisation
   needs. *)
let percentile d p =
  if d.dist_count = 0 then 0
  else begin
    let rank =
      Stdlib.max 1 (int_of_float (ceil (p *. float_of_int d.dist_count)))
    in
    let seen = ref 0 and result = ref (bucket_floor (bucket_count - 1)) in
    (try
       Array.iteri
         (fun i n ->
           seen := !seen + n;
           if !seen >= rank then begin
             result := bucket_floor i;
             raise Exit
           end)
         d.dist_buckets
     with Exit -> ());
    !result
  end

let reset () =
  Mutex.protect registry_mutex (fun () ->
      List.iter
        (fun l ->
          let clear slots =
            Array.iter
              (fun s ->
                s.count <- 0;
                s.total <- 0;
                s.t0 <- 0;
                Array.fill s.buckets 0 bucket_count 0)
              slots
          in
          clear l.span_slots;
          clear l.hist_slots;
          Array.fill l.counter_vals 0 (Array.length l.counter_vals) 0;
          l.led.cells <- 0;
          l.led.busy_ns <- 0;
          l.led.minor_collections <- 0;
          l.led.major_collections <- 0;
          l.led.minor_words <- 0;
          l.led.promoted_words <- 0;
          l.led.major_words <- 0)
        !locals)

