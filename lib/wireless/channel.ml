type grid = { max_speed : float; epoch : float }

(* [rx_next] of a reception that pruning took off its node's chain; its
   slot stays allocated until its frame-end event *)
let unlinked = -2

(* ~10 dB capture threshold at path-loss exponent 2 *)
let capture_ratio = 3.0

(* carrier sense reports busy for this long after a frame ends, so that
   SIFS-spaced ACKs win the medium over DIFS-spaced contenders (the
   sampling MAC has no NAV; this restores the DIFS > SIFS protection) *)
let idle_guard = 60e-6

type 'a t = {
  engine : Des.Engine.t;
  trace : Trace.t;
  nodes : int;
  positions : Waypoint.cache;
  range : float;
  cs_range : float;
  receivers : (src:int -> 'a -> unit) option array;
  (* fault-injection hook: a frame reaching [dst] intact is still dropped
     when the filter vetoes the (src, dst) pair at delivery time *)
  mutable filter : (src:int -> dst:int -> bool) option;
  tx_until : float array;
  (* Receptions in flat slot arrays. Slot [s] is a reception at node
     [rx_node.(s)], [rx_dist.(s)] metres from its sender, ending at
     [rx_end.(s)]. It sits on two chains: its node's in-progress chain
     ([rx_head] per node, then [rx_next]; newest first, pruned lazily)
     and its frame's chain ([rx_frame]; sweep order), which the
     frame-end event walks. Free slots chain through [rx_frame] from
     [rx_free]; only the frame-end event frees a slot. *)
  mutable rx_node : int array;
  mutable rx_dist : float array;
  mutable rx_end : float array;
  mutable rx_corrupted : bool array;
  mutable rx_next : int array;
  mutable rx_frame : int array;
  mutable rx_free : int;
  rx_head : int array;
  (* all in-progress transmissions, for carrier sense, as parallel arrays
     compacted in place: [busy_until] runs on every MAC backoff expiry, so
     rebuilding a (src, until) list there dominated kilonode allocation *)
  mutable air_src : int array;
  mutable air_until : float array;
  mutable air_len : int;
  (* the senders of the air entries that can reach a receiver of the
     frame being swept, picked once per transmit; as long as [air_src] *)
  mutable near_src : int array;
  mutable near_len : int;
  mutable collision_count : int;
  collision_at : int array;
  (* spatial index pruning the per-frame neighbour scan; None = full scan *)
  grid : Grid.t option;
  (* the grid's bucketed coordinates, x at 2 j and y at 2 j + 1 ([||]
     without a grid), read in place by the pruning tests below *)
  bucket : float array;
  (* per-(node, time) position memo, node i's (time, x, y) at 3 i: one
     frame event looks the same nodes up at the same instant many times.
     One flat float array keeps the floats unboxed, a node's three side
     by side, and the memo stores free of write barriers. *)
  memo : float array;
  (* --prof span for the synchronous transmit sweep, named for the
     neighbour-scan strategy so profiles separate grid from naive *)
  span_transmit : Obs.span;
}

(* frame-end delivery events, one per frame however many nodes hear it,
   distinct from the synchronous sweep above *)
let span_rx = Obs.span "event.channel.rx"

(* Always-on work counters, each added once per call: receptions the
   frame-end events walk, air entries carrier sense reads, and air
   entries the per-frame interferer pass reads and picks. *)
let receptions = Obs.counter "channel.receptions"

let sense_scanned = Obs.counter "channel.sense.scanned"

let interferers_scanned = Obs.counter "channel.interferers.scanned"

let interferers_picked = Obs.counter "channel.interferers.picked"

let create ?(trace = Trace.null) ?grid engine ~scripts ~range ~cs_range =
  if cs_range < range then invalid_arg "Channel.create: cs_range < range";
  let nodes = Array.length scripts in
  let positions = Waypoint.cache scripts in
  let grid =
    Option.map
      (fun { max_speed; epoch } ->
        Grid.create ~positions ~cell:(cs_range /. 2.0) ~max_speed ~epoch)
      grid
  in
  {
    engine;
    trace;
    nodes;
    positions;
    range;
    cs_range;
    receivers = Array.make nodes None;
    filter = None;
    tx_until = Array.make nodes neg_infinity;
    rx_node = [||];
    rx_dist = [||];
    rx_end = [||];
    rx_corrupted = [||];
    rx_next = [||];
    rx_frame = [||];
    rx_free = -1;
    rx_head = Array.make nodes (-1);
    air_src = Array.make 16 0;
    air_until = Array.make 16 neg_infinity;
    air_len = 0;
    near_src = Array.make 16 0;
    near_len = 0;
    collision_count = 0;
    collision_at = Array.make nodes 0;
    grid;
    bucket = (match grid with Some g -> Grid.bucketed g | None -> [||]);
    memo = Array.make (3 * nodes) nan;
    span_transmit =
      Obs.span
        (if Option.is_some grid then "channel.transmit.grid"
         else "channel.transmit.naive");
  }

let set_receiver t i f = t.receivers.(i) <- Some f

let set_filter t f = t.filter <- Some f

let deliverable t ~src ~dst =
  match t.filter with None -> true | Some f -> f ~src ~dst

let now t = Des.Engine.now t.engine

(* nan stamps never compare equal, so the first lookup always misses *)
let refresh_pos t i time =
  let m = 3 * i in
  if t.memo.(m) <> time then begin
    Waypoint.locate t.positions i time t.memo (m + 1);
    t.memo.(m) <- time
  end

(* allocates a fresh pair; hot paths read the memo directly instead *)
let pos t i time =
  refresh_pos t i time;
  Vec2.make ~x:t.memo.((3 * i) + 1) ~y:t.memo.((3 * i) + 2)

(* compact the air arrays in place, keeping entries through the guard
   window (carrier sense needs them); entry order never affects results —
   corrupt is idempotent per frame, busy_until takes a max *)
let prune t =
  let time = now t in
  let src = t.air_src and until = t.air_until in
  let k = ref 0 in
  for i = 0 to t.air_len - 1 do
    if until.(i) +. idle_guard > time then begin
      if !k <> i then begin
        src.(!k) <- src.(i);
        until.(!k) <- until.(i)
      end;
      incr k
    end
  done;
  t.air_len <- !k

let air_add t s tx_end =
  let capacity = Array.length t.air_src in
  if t.air_len = capacity then begin
    let src = Array.make (2 * capacity) 0 in
    let until = Array.make (2 * capacity) neg_infinity in
    Array.blit t.air_src 0 src 0 t.air_len;
    Array.blit t.air_until 0 until 0 t.air_len;
    t.air_src <- src;
    t.air_until <- until;
    t.near_src <- Array.make (2 * capacity) 0
  end;
  t.air_src.(t.air_len) <- s;
  t.air_until.(t.air_len) <- tx_end;
  t.air_len <- t.air_len + 1

let transmitting t i = t.tx_until.(i) > now t

(* same float expression as Vec2.dist_sq, evaluated on the flat memo *)
let within t a b ~radius =
  let time = now t in
  refresh_pos t a time;
  refresh_pos t b time;
  let dx = t.memo.((3 * a) + 1) -. t.memo.((3 * b) + 1)
  and dy = t.memo.((3 * a) + 2) -. t.memo.((3 * b) + 2) in
  (dx *. dx) +. (dy *. dy) <= radius *. radius

let in_range t a b = within t a b ~radius:t.range

(* Pruning without a position lookup. A node is within [slack] of the
   position the grid bucketed it under, so a bucketed distance above
   [radius] plus the slack once per bucketed end, plus the grid's rounding
   margin, proves the exact distance is above [radius]. The reach is
   infinite on a naive channel and before the grid's first build: then
   nothing is pruned and the bucket arrays are never read. *)
let reach ~slack ~radius ~ends = radius +. (ends *. slack) +. Grid.margin

(* exact point (x, y) against node [j]'s bucketed position; both tests are
   inlined because a call would box their float arguments on every
   candidate *)
let[@inline] beyond t j ~x ~y ~reach =
  reach < infinity
  &&
  let dx = t.bucket.(2 * j) -. x and dy = t.bucket.((2 * j) + 1) -. y in
  (dx *. dx) +. (dy *. dy) > reach *. reach

(* two bucketed positions: [reach] must count the slack twice *)
let[@inline] apart t a b ~reach =
  reach < infinity
  &&
  let dx = t.bucket.(2 * a) -. t.bucket.(2 * b)
  and dy = t.bucket.((2 * a) + 1) -. t.bucket.((2 * b) + 1) in
  (dx *. dx) +. (dy *. dy) > reach *. reach

(* Carrier sense reads the grid as last built and never rebuilds it, so
   [grid_rebuilds] counts only the sweeps that would rebuild anyway. *)
let sense_reach t time =
  let slack =
    match t.grid with None -> infinity | Some g -> Grid.slack g ~now:time
  in
  reach ~slack ~radius:t.cs_range ~ends:2.0

let busy_until t i =
  prune t;
  let time = now t in
  let horizon = ref time in
  if t.tx_until.(i) > !horizon then horizon := t.tx_until.(i);
  let far = sense_reach t time in
  for k = 0 to t.air_len - 1 do
    let src = t.air_src.(k) in
    let guarded = t.air_until.(k) +. idle_guard in
    if
      src <> i && guarded > !horizon
      && (not (apart t i src ~reach:far))
      && within t i src ~radius:t.cs_range
    then horizon := guarded
  done;
  Obs.add sense_scanned t.air_len;
  !horizon

let neighbors t i =
  let time = now t in
  let pos_i = pos t i time in
  let xi = pos_i.Vec2.x and yi = pos_i.Vec2.y in
  let result = ref [] in
  let consider j =
    if j <> i then begin
      refresh_pos t j time;
      let dx = xi -. t.memo.((3 * j) + 1) and dy = yi -. t.memo.((3 * j) + 2) in
      if (dx *. dx) +. (dy *. dy) <= t.range *. t.range then
        result := j :: !result
    end
  in
  match t.grid with
  | None ->
      for j = t.nodes - 1 downto 0 do
        consider j
      done;
      !result
  | Some g ->
      (* candidates arrive ascending, so reversing restores the naive
         ascending result list *)
      Grid.iter g ~now:time ~center:pos_i ~radius:t.range consider;
      List.rev !result

let corrupt t s =
  if not t.rx_corrupted.(s) then begin
    t.rx_corrupted.(s) <- true;
    let j = t.rx_node.(s) in
    t.collision_count <- t.collision_count + 1;
    t.collision_at.(j) <- t.collision_at.(j) + 1;
    Trace.mac_collision t.trace ~node:j
  end

(* Capture: a frame whose sender is [capture_ratio] times closer than a
   competing signal survives the overlap; otherwise the overlap corrupts
   it. Applied pairwise between overlapping frames and against
   non-decodable interference. *)
let clash t a b =
  let da = t.rx_dist.(a) and db = t.rx_dist.(b) in
  if da *. capture_ratio <= db then corrupt t b
  else if db *. capture_ratio <= da then corrupt t a
  else begin
    corrupt t a;
    corrupt t b
  end

let[@inline] interfere t s ~interferer_dist =
  if t.rx_dist.(s) *. capture_ratio > interferer_dist then corrupt t s

(* loops over a node's chain, from the reception [s] on, newest first *)
let rec corrupt_all t s =
  if s >= 0 then begin
    corrupt t s;
    corrupt_all t t.rx_next.(s)
  end

let rec clash_all t rx s =
  if s >= 0 then begin
    clash t rx s;
    clash_all t rx t.rx_next.(s)
  end

let rec interfere_all t ~interferer_dist s =
  if s >= 0 then begin
    interfere t s ~interferer_dist;
    interfere_all t ~interferer_dist t.rx_next.(s)
  end

(* take node [j]'s ended receptions off its chain, keeping the rest in
   order; their slots wait for their frame-end events *)
let prune_rx t j time =
  let prev = ref (-1) and s = ref t.rx_head.(j) in
  while !s >= 0 do
    let next = t.rx_next.(!s) in
    if t.rx_end.(!s) <= time then begin
      if !prev < 0 then t.rx_head.(j) <- next else t.rx_next.(!prev) <- next;
      t.rx_next.(!s) <- unlinked
    end
    else prev := !s;
    s := next
  done

(* reception [s] off its node's chain, unless pruning took it off first *)
let unlink t s =
  if t.rx_next.(s) <> unlinked then begin
    let j = t.rx_node.(s) in
    if t.rx_head.(j) = s then t.rx_head.(j) <- t.rx_next.(s)
    else begin
      let p = ref t.rx_head.(j) in
      while t.rx_next.(!p) <> s do
        p := t.rx_next.(!p)
      done;
      t.rx_next.(!p) <- t.rx_next.(s)
    end;
    t.rx_next.(s) <- unlinked
  end

(* double the slot arrays (16 slots at first), chaining the new slots
   onto the empty free list *)
let grow_slots t =
  let n = Array.length t.rx_node in
  let size = Stdlib.max 16 (2 * n) in
  let extend a fill =
    let b = Array.make size fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.rx_node <- extend t.rx_node 0;
  t.rx_dist <- extend t.rx_dist 0.0;
  t.rx_end <- extend t.rx_end 0.0;
  t.rx_corrupted <- extend t.rx_corrupted false;
  t.rx_next <- extend t.rx_next unlinked;
  t.rx_frame <- extend t.rx_frame (-1);
  for s = n to size - 2 do
    t.rx_frame.(s) <- s + 1
  done;
  t.rx_free <- n

(* One frame's end at every receiver on its chain, in sweep order: each
   reception leaves its node's chain and frees its slot, then reaches
   the receiver unless it was corrupted, the receiver is transmitting or
   the filter vetoes the pair. Returns how many it walked. *)
let finish_frame t ~src pdu first =
  let s = ref first and walked = ref 0 in
  while !s >= 0 do
    let slot = !s in
    s := t.rx_frame.(slot);
    unlink t slot;
    let j = t.rx_node.(slot) and corrupted = t.rx_corrupted.(slot) in
    t.rx_frame.(slot) <- t.rx_free;
    t.rx_free <- slot;
    incr walked;
    if (not corrupted) && (not (transmitting t j)) && deliverable t ~src ~dst:j
    then
      match t.receivers.(j) with Some deliver -> deliver ~src pdu | None -> ()
  done;
  !walked

let transmit_body t ~src ~duration pdu =
  let time = now t in
  let tx_end = time +. duration in
  prune t;
  air_add t src tx_end;
  if tx_end > t.tx_until.(src) then t.tx_until.(src) <- tx_end;
  (* half duplex: starting a transmission ruins any reception in progress *)
  prune_rx t src time;
  corrupt_all t t.rx_head.(src);
  let pos_src = pos t src time in
  let sx = pos_src.Vec2.x and sy = pos_src.Vec2.y in
  let slack =
    match t.grid with
    | None -> infinity
    | Some g ->
        (* the sweep below would rebuild stale buckets on its way in; do
           it first, so this slack belongs to the buckets the sweep reads *)
        Grid.ensure g ~now:time;
        Grid.slack g ~now:time
  in
  (* air entries past this are too far from a receiver to interfere *)
  let cs_reach = reach ~slack ~radius:t.cs_range ~ends:1.0 in
  (* A receiver lies within [range] of the sender, so an air entry within
     [cs_reach] of a receiver lies within [cs_reach + range] of the
     sender; one more margin absorbs the rounding of the two distances.
     The entries this pass picks are the only ones a receiver's
     interferer loop can act on, in the same (air) order. *)
  let pick_reach =
    reach ~slack ~radius:(t.cs_range +. t.range) ~ends:1.0 +. Grid.margin
  in
  t.near_len <- 0;
  for k = 0 to t.air_len - 1 do
    let other = t.air_src.(k) in
    if
      other <> src
      && t.air_until.(k) > time
      && not (beyond t other ~x:sx ~y:sy ~reach:pick_reach)
    then begin
      t.near_src.(t.near_len) <- other;
      t.near_len <- t.near_len + 1
    end
  done;
  Obs.add interferers_scanned t.air_len;
  Obs.add interferers_picked t.near_len;
  (* the frame's receptions, chained in sweep order *)
  let first = ref (-1) and last = ref (-1) in
  let touch j =
    if j <> src then begin
      refresh_pos t j time;
      let jx = t.memo.((3 * j) + 1) and jy = t.memo.((3 * j) + 2) in
      (* sqrt of Vec2.dist_sq's expression == Vec2.dist, bit for bit *)
      let dxj = sx -. jx and dyj = sy -. jy in
      let d = sqrt ((dxj *. dxj) +. (dyj *. dyj)) in
      if d <= t.range then begin
        if transmitting t j then ()
          (* a transmitting node hears nothing; the frame is simply lost *)
        else begin
          prune_rx t j time;
          if t.rx_free < 0 then grow_slots t;
          let rx = t.rx_free in
          t.rx_free <- t.rx_frame.(rx);
          t.rx_node.(rx) <- j;
          t.rx_dist.(rx) <- d;
          t.rx_end.(rx) <- tx_end;
          t.rx_corrupted.(rx) <- false;
          t.rx_frame.(rx) <- -1;
          (* overlap with receptions already in progress: capture decides *)
          clash_all t rx t.rx_head.(j);
          (* interferers already in the air but too far to decode *)
          for k = 0 to t.near_len - 1 do
            let other = t.near_src.(k) in
            if other <> j && not (beyond t other ~x:jx ~y:jy ~reach:cs_reach)
            then begin
              refresh_pos t other time;
              let dxo = t.memo.((3 * other) + 1) -. jx
              and dyo = t.memo.((3 * other) + 2) -. jy in
              let di = sqrt ((dxo *. dxo) +. (dyo *. dyo)) in
              if di > t.range && di <= t.cs_range then
                interfere t rx ~interferer_dist:di
            end
          done;
          t.rx_next.(rx) <- t.rx_head.(j);
          t.rx_head.(j) <- rx;
          if !last < 0 then first := rx else t.rx_frame.(!last) <- rx;
          last := rx
        end
      end
      else if d <= t.cs_range then begin
        (* interference zone: undecodable, but can stomp receptions *)
        prune_rx t j time;
        interfere_all t ~interferer_dist:d t.rx_head.(j)
      end
    end
  in
  (* nodes farther than cs_range are untouched by the body above, so
     sweeping only the grid's superset of the cs_range disc is exact; both
     sweeps visit ascending ids *)
  (match t.grid with
  | None ->
      for j = 0 to t.nodes - 1 do
        touch j
      done
  | Some g ->
      (* beyond [range] the body only stomps receptions in progress: the
         sweep drops a candidate with none that is provably out of range
         before it sorts the rest, and before its position is looked up.
         Only [touch j] changes node [j]'s chain, so the test reads the
         same chain here as it would first thing in [touch]. *)
      let quiet_reach = reach ~slack ~radius:t.range ~ends:1.0 in
      let keep j =
        t.rx_head.(j) >= 0 || not (beyond t j ~x:sx ~y:sy ~reach:quiet_reach)
      in
      Grid.iter ~keep g ~now:time ~center:pos_src ~radius:t.cs_range touch);
  (* One event ends the frame at every receiver. The sweep schedules
     nothing but this event, so it takes the tie number the first
     receiver's own event would have had, and whatever a receiver
     schedules for that instant takes a later one: the receivers run
     exactly as consecutive per-receiver events would. *)
  if !first >= 0 then begin
    let first = !first in
    ignore
      (Des.Engine.schedule ~span:span_rx t.engine ~delay:duration (fun () ->
           Obs.add receptions (finish_frame t ~src pdu first)))
  end

let transmit t ~src ~duration pdu =
  if Obs.enabled () then begin
    Obs.start t.span_transmit;
    transmit_body t ~src ~duration pdu;
    Obs.stop t.span_transmit
  end
  else transmit_body t ~src ~duration pdu

let collisions t = t.collision_count

let collisions_at t i = t.collision_at.(i)

let grid_rebuilds t =
  match t.grid with None -> 0 | Some g -> Grid.rebuilds g
