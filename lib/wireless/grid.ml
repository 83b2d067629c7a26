type t = {
  nodes : int;
  positions : Waypoint.cache;
  cell : float;
  max_speed : float;
  epoch : float;
  mutable built_at : float;  (** nan until the first rebuild *)
  mutable ox : float;
  mutable oy : float;
  mutable cols : int;
  mutable rows : int;
  (* CSR layout: bucket b holds ids.(off.(b) .. off.(b+1) - 1), ascending *)
  mutable off : int array;
  ids : int array;
  (* bucketed positions, node j's x at 2 j and its y at 2 j + 1 *)
  xy : float array;
  (* query scratch: candidates gathered here, then sorted in place *)
  gather : int array;
  (* query scratch for dense candidate sets: membership mask *)
  mask : bool array;
  mutable rebuild_count : int;
}

let create ~positions ~cell ~max_speed ~epoch =
  if cell <= 0.0 then invalid_arg "Grid.create: cell must be positive";
  if epoch <= 0.0 then invalid_arg "Grid.create: epoch must be positive";
  if max_speed < 0.0 then invalid_arg "Grid.create: negative max_speed";
  let nodes = Waypoint.cached positions in
  {
    nodes;
    positions;
    cell;
    max_speed;
    epoch;
    built_at = nan;
    ox = 0.0;
    oy = 0.0;
    cols = 0;
    rows = 0;
    off = [||];
    ids = Array.make (Stdlib.max nodes 1) 0;
    xy = Array.make (2 * Stdlib.max nodes 1) 0.0;
    gather = Array.make (Stdlib.max nodes 1) 0;
    mask = Array.make (Stdlib.max nodes 1) false;
    rebuild_count = 0;
  }

let bucket t x y =
  let bx = int_of_float ((x -. t.ox) /. t.cell) in
  let by = int_of_float ((y -. t.oy) /. t.cell) in
  (by * t.cols) + bx

let span_rebuild = Obs.span "channel.grid.rebuild"

let rebuild_body t ~now =
  if t.nodes > 0 then begin
    let minx = ref infinity and miny = ref infinity in
    let maxx = ref neg_infinity and maxy = ref neg_infinity in
    for i = 0 to t.nodes - 1 do
      Waypoint.locate t.positions i now t.xy (2 * i);
      let x = t.xy.(2 * i) and y = t.xy.((2 * i) + 1) in
      if x < !minx then minx := x;
      if x > !maxx then maxx := x;
      if y < !miny then miny := y;
      if y > !maxy then maxy := y
    done;
    t.ox <- !minx;
    t.oy <- !miny;
    t.cols <- 1 + int_of_float ((!maxx -. !minx) /. t.cell);
    t.rows <- 1 + int_of_float ((!maxy -. !miny) /. t.cell);
    let buckets = t.cols * t.rows in
    if Array.length t.off <> buckets + 1 then t.off <- Array.make (buckets + 1) 0
    else Array.fill t.off 0 (buckets + 1) 0;
    for i = 0 to t.nodes - 1 do
      let b = bucket t t.xy.(2 * i) t.xy.((2 * i) + 1) in
      t.off.(b + 1) <- t.off.(b + 1) + 1
    done;
    for b = 1 to buckets do
      t.off.(b) <- t.off.(b) + t.off.(b - 1)
    done;
    let cursor = Array.copy t.off in
    for i = 0 to t.nodes - 1 do
      let b = bucket t t.xy.(2 * i) t.xy.((2 * i) + 1) in
      t.ids.(cursor.(b)) <- i;
      cursor.(b) <- cursor.(b) + 1
    done
  end;
  t.built_at <- now;
  t.rebuild_count <- t.rebuild_count + 1

let rebuild t ~now =
  if Obs.enabled () then begin
    Obs.start span_rebuild;
    rebuild_body t ~now;
    Obs.stop span_rebuild
  end
  else rebuild_body t ~now

let ensure t ~now =
  if Float.is_nan t.built_at || now < t.built_at || now -. t.built_at > t.epoch
  then rebuild t ~now

let clampi v lo hi = if v < lo then lo else if v > hi then hi else v

(* metres every pruning bound adds: interpolated positions round far
   below this, so a pruned node is out of reach by a wide gap *)
let margin = 1.0

let slack t ~now =
  if now >= t.built_at then t.max_speed *. (now -. t.built_at) else infinity

let bucketed t = t.xy

(* the sweep's work, added once per query *)
let gathered = Obs.counter "channel.grid.gathered"

let sorted = Obs.counter "channel.grid.sorted"

let keep_all (_ : int) = true

let iter ?(keep = keep_all) t ~now ~center ~radius f =
  if t.nodes > 0 then begin
    ensure t ~now;
    (* every node is at most [slack] away from the position it was
       bucketed under, so a bucketed position outside the disc inflated by
       that much (plus the rounding margin) is outside [radius] now *)
    let r = radius +. slack t ~now +. margin in
    let r2 = r *. r in
    let cx = center.Vec2.x and cy = center.Vec2.y in
    let near j =
      let dx = t.xy.(2 * j) -. cx and dy = t.xy.((2 * j) + 1) -. cy in
      (dx *. dx) +. (dy *. dy) <= r2
    in
    let bx0 = clampi (int_of_float ((cx -. r -. t.ox) /. t.cell)) 0 (t.cols - 1) in
    let bx1 = clampi (int_of_float ((cx +. r -. t.ox) /. t.cell)) 0 (t.cols - 1) in
    let by0 = clampi (int_of_float ((cy -. r -. t.oy) /. t.cell)) 0 (t.rows - 1) in
    let by1 = clampi (int_of_float ((cy +. r -. t.oy) /. t.cell)) 0 (t.rows - 1) in
    (* [keep] drops candidates before the sort, so only the kept ones are
       ordered. Its contract bars it from reading anything [f] changes
       for another node, so filtering in bucket order decides exactly
       what filtering inside [f] would. *)
    let g = ref 0 and m = ref 0 in
    for by = by0 to by1 do
      for bx = bx0 to bx1 do
        let b = (by * t.cols) + bx in
        for k = t.off.(b) to t.off.(b + 1) - 1 do
          let j = t.ids.(k) in
          if near j then begin
            incr g;
            if keep j then begin
              t.gather.(!m) <- j;
              incr m
            end
          end
        done
      done
    done;
    Obs.add gathered !g;
    Obs.add sorted !m;
    (* buckets interleave ids; visit candidates in ascending node order so
       a grid-backed scan schedules engine events in exactly the order the
       naive 0..N-1 loop does *)
    if !m * !m > 4 * t.nodes then begin
      (* many candidates: an O(nodes + m) membership sweep beats the
         quadratic insertion sort *)
      for k = 0 to !m - 1 do
        t.mask.(t.gather.(k)) <- true
      done;
      for j = 0 to t.nodes - 1 do
        if t.mask.(j) then begin
          t.mask.(j) <- false;
          f j
        end
      done
    end
    else begin
      for i = 1 to !m - 1 do
        let v = t.gather.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && t.gather.(!j) > v do
          t.gather.(!j + 1) <- t.gather.(!j);
          decr j
        done;
        t.gather.(!j + 1) <- v
      done;
      for k = 0 to !m - 1 do
        f t.gather.(k)
      done
    end
  end

let rebuilds t = t.rebuild_count
