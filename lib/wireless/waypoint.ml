type leg = { depart : float; arrive : float; from_p : Vec2.t; to_p : Vec2.t }

(* [cursor] memoises the leg found by the last {!position} query. The
   simulator queries at non-decreasing times, so the next query almost
   always lands on the same leg or the one after — O(1) instead of a
   binary search per call. Queries that jump backwards fall back to the
   search; the answer never depends on the cursor. *)
type t = { initial : Vec2.t; legs : leg array; mutable cursor : int }

let generate ~terrain ~rng ~pause ~speed_min ~speed_max ~duration =
  if speed_min < 0.0 || speed_max < speed_min then
    invalid_arg "Waypoint.generate: need 0 <= speed_min <= speed_max";
  if pause < 0.0 then invalid_arg "Waypoint.generate: negative pause";
  let initial = Terrain.random_point terrain rng in
  if speed_max <= 0.0 then { initial; legs = [||]; cursor = 0 }
  else
    let rec build time pos acc =
      if time >= duration then List.rev acc
      else begin
        let depart = time +. pause in
        let dest = Terrain.random_point terrain rng in
        let speed = Des.Rng.uniform rng ~lo:speed_min ~hi:speed_max in
        (* speed can be 0 when speed_min is 0: the node freezes for the
           rest of the run. An infinite arrival keeps every later time on
           this leg with frac = finite/inf = 0, never 0/0. *)
        let travel =
          if speed > 0.0 then Vec2.dist pos dest /. speed else infinity
        in
        let leg =
          { depart; arrive = depart +. travel; from_p = pos; to_p = dest }
        in
        build leg.arrive dest (leg :: acc)
      end
    in
    { initial; legs = Array.of_list (build 0.0 initial []); cursor = 0 }

let stationary p = { initial = p; legs = [||]; cursor = 0 }

let of_legs ~initial legs =
  let rec check prev_arrive prev_to = function
    | [] -> ()
    | leg :: rest ->
        if leg.depart < prev_arrive then
          invalid_arg "Waypoint.of_legs: legs overlap";
        if leg.arrive < leg.depart then
          invalid_arg "Waypoint.of_legs: leg arrives before it departs";
        if not (Vec2.equal leg.from_p prev_to) then
          invalid_arg "Waypoint.of_legs: leg discontinuous with predecessor";
        check leg.arrive leg.to_p rest
  in
  check 0.0 initial legs;
  { initial; legs = Array.of_list legs; cursor = 0 }

(* the last leg with [depart <= time], for [time] past the first
   departure: resume from the cursor for the common monotone query,
   binary-search on a backwards jump *)
let leg_index t time =
  let n = Array.length t.legs in
  let i =
    if t.legs.(t.cursor).depart <= time then begin
      let i = ref t.cursor in
      while !i + 1 < n && t.legs.(!i + 1).depart <= time do
        incr i
      done;
      !i
    end
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if t.legs.(mid).depart <= time then lo := mid else hi := mid - 1
      done;
      !lo
    end
  in
  t.cursor <- i;
  i

let position t time =
  let n = Array.length t.legs in
  if n = 0 || time <= t.legs.(0).depart then t.initial
  else begin
    let leg = t.legs.(leg_index t time) in
    if time >= leg.arrive then leg.to_p
    else
      let frac = (time -. leg.depart) /. (leg.arrive -. leg.depart) in
      Vec2.lerp leg.from_p leg.to_p ~frac
  end

(* Node [i]'s segment is [seg.(8 i) .. seg.(8 i + 7)]: the times [lo, hi)
   it answers for, then [depart], [span], [x], [y], [dx], [dy]. A moving
   segment ([span > 0]) puts the node at [x + frac * dx] with [frac =
   (time - depart) / span], [position]'s own expression over the same
   stored operands; a still one ([span = 0]) at [(x, y)]. *)
type cache = { scripts : t array; seg : float array }

let stride = 8

(* a nan bound admits no time, so every node's first lookup refills *)
let cache scripts =
  { scripts; seg = Array.make (stride * Array.length scripts) nan }

let cached c = Array.length c.scripts

let refills = Obs.counter "mobility.segment.refills"

let still seg b ~lo ~hi (p : Vec2.t) =
  seg.(b) <- lo;
  seg.(b + 1) <- hi;
  seg.(b + 2) <- 0.0;
  seg.(b + 3) <- 0.0;
  seg.(b + 4) <- p.x;
  seg.(b + 5) <- p.y;
  seg.(b + 6) <- 0.0;
  seg.(b + 7) <- 0.0

(* Store the widest segment around [time] on which [position] takes one
   branch: before the first departure (inclusive, hence [Float.succ]),
   or on leg [k], which the search picks from its departure (or from
   just past the first one) until the next leg departs. *)
let refill c i time =
  Obs.incr refills;
  let s = c.scripts.(i) and seg = c.seg and b = stride * i in
  let n = Array.length s.legs in
  if n = 0 then still seg b ~lo:neg_infinity ~hi:infinity s.initial
  else
    let first = s.legs.(0).depart in
    if time <= first then
      still seg b ~lo:neg_infinity ~hi:(Float.succ first) s.initial
    else begin
      let k = leg_index s time in
      let leg = s.legs.(k) in
      let start = if leg.depart > first then leg.depart else Float.succ first in
      let next = if k + 1 < n then s.legs.(k + 1).depart else infinity in
      if time >= leg.arrive then
        still seg b ~lo:(Float.max start leg.arrive) ~hi:next leg.to_p
      else begin
        seg.(b) <- start;
        seg.(b + 1) <- leg.arrive;
        seg.(b + 2) <- leg.depart;
        seg.(b + 3) <- leg.arrive -. leg.depart;
        seg.(b + 4) <- leg.from_p.x;
        seg.(b + 5) <- leg.from_p.y;
        seg.(b + 6) <- leg.to_p.x -. leg.from_p.x;
        seg.(b + 7) <- leg.to_p.y -. leg.from_p.y
      end
    end

let locate c i time dst k =
  let seg = c.seg and b = stride * i in
  if not (seg.(b) <= time && time < seg.(b + 1)) then refill c i time;
  let span = seg.(b + 3) in
  if span > 0.0 then begin
    let frac = (time -. seg.(b + 2)) /. span in
    dst.(k) <- seg.(b + 4) +. (frac *. seg.(b + 6));
    dst.(k + 1) <- seg.(b + 5) +. (frac *. seg.(b + 7))
  end
  else begin
    dst.(k) <- seg.(b + 4);
    dst.(k + 1) <- seg.(b + 5)
  end

let legs t = Array.to_list t.legs

let max_speed t =
  Array.fold_left
    (fun acc leg ->
      let travel = leg.arrive -. leg.depart in
      if travel <= 0.0 then acc
      else Stdlib.max acc (Vec2.dist leg.from_p leg.to_p /. travel))
    0.0 t.legs
