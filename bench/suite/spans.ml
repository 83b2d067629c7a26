(* Bench-side spans: the wall time of calls the benchmark wraps at the
   program's public boundaries (runner hooks, agent handlers, ctx
   capabilities). Spans stay in memory, aggregated per (name, parent) as
   count, total and a log2 histogram; the parent is the innermost bench
   span open when the span started, or [root]. Recording allocates
   nothing: names are interned to indices up front and the aggregates are
   flat int arrays indexed by (parent, name). *)

let root = "root"

type entry = {
  name : string;
  parent : string;
  count : int;
  total_ns : int;
  buckets : int array;  (** {!Obs.bucket_index} geometry *)
}

type t = {
  names : string array;
  counts : int array;
  totals : int array;
  hist : int array;  (* (parent * n + name) * Obs.bucket_count + bucket *)
  stack : int array;
  starts : int array;
  mutable depth : int;
}

let max_depth = 64

let create names =
  let n = Array.length names in
  let cells = (n + 1) * n in
  {
    names;
    counts = Array.make cells 0;
    totals = Array.make cells 0;
    hist = Array.make (cells * Obs.bucket_count) 0;
    stack = Array.make max_depth 0;
    starts = Array.make max_depth 0;
    depth = 0;
  }

let id t name =
  let rec find i =
    if i = Array.length t.names then invalid_arg ("Spans.id: " ^ name)
    else if t.names.(i) = name then i
    else find (i + 1)
  in
  find 0

(* CLOCK_MONOTONIC in ns; unboxed and allocation-free *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let start t id =
  t.stack.(t.depth) <- id;
  t.starts.(t.depth) <- now_ns ();
  t.depth <- t.depth + 1

let stop t =
  let stop = now_ns () in
  t.depth <- t.depth - 1;
  let id = t.stack.(t.depth) in
  let n = Array.length t.names in
  let parent = if t.depth = 0 then n else t.stack.(t.depth - 1) in
  let cell = (parent * n) + id in
  let d = stop - t.starts.(t.depth) in
  t.counts.(cell) <- t.counts.(cell) + 1;
  t.totals.(cell) <- t.totals.(cell) + d;
  let b = (cell * Obs.bucket_count) + Obs.bucket_index d in
  t.hist.(b) <- t.hist.(b) + 1

let entries t =
  let n = Array.length t.names in
  List.concat
    (List.init (n + 1) (fun parent ->
         List.filter_map
           (fun id ->
             let cell = (parent * n) + id in
             if t.counts.(cell) = 0 then None
             else
               Some
                 {
                   name = t.names.(id);
                   parent = (if parent = n then root else t.names.(parent));
                   count = t.counts.(cell);
                   total_ns = t.totals.(cell);
                   buckets =
                     Array.sub t.hist (cell * Obs.bucket_count) Obs.bucket_count;
                 })
           (List.init n Fun.id)))

(* ------------------------------------------------------------------ *)
(* Self-time arithmetic over a span set. Every entry carries the span it
   ran inside; [self_ns es names] is the time spent in [names] that no
   child of theirs covers. A layer whose code runs under several span
   names (the MAC's four event kinds) is passed as one group, and a group
   label that is not itself a span may serve as a parent. *)

let sum_matching es p f =
  List.fold_left (fun acc e -> if p e then acc + f e else acc) 0 es

let count es name = sum_matching es (fun e -> e.name = name) (fun e -> e.count)

let total_ns es name =
  sum_matching es (fun e -> e.name = name) (fun e -> e.total_ns)

let self_ns es names =
  let inside e = List.mem e.name names in
  sum_matching es inside (fun e -> e.total_ns)
  - sum_matching es
      (fun e -> List.mem e.parent names && not (inside e))
      (fun e -> e.total_ns)

(* merged histogram of [names], for percentiles across a group *)
let dist es names =
  let buckets = Array.make Obs.bucket_count 0 in
  let count = ref 0 and total = ref 0 in
  List.iter
    (fun e ->
      if List.mem e.name names then begin
        count := !count + e.count;
        total := !total + e.total_ns;
        Array.iteri (fun i v -> buckets.(i) <- buckets.(i) + v) e.buckets
      end)
    es;
  {
    Obs.dist_name = String.concat "+" names;
    dist_count = !count;
    dist_total = !total;
    dist_buckets = buckets;
  }
