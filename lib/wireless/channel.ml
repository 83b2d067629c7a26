type reception = {
  node : int;  (** the receiver *)
  mutable corrupted : bool;
  rx_end : float;
  dist : float;  (** sender-to-receiver distance at frame start *)
}

type grid = { max_speed : float; epoch : float }

type 'a t = {
  engine : Des.Engine.t;
  trace : Trace.t;
  nodes : int;
  position : int -> float -> Vec2.t;
  range : float;
  cs_range : float;
  capture_ratio : float;
  (* carrier sense reports busy for this long after a frame ends, so that
     SIFS-spaced ACKs win the medium over DIFS-spaced contenders (the
     sampling MAC has no NAV; this restores the DIFS > SIFS protection) *)
  idle_guard : float;
  receivers : (src:int -> 'a -> unit) option array;
  (* fault-injection hook: a frame reaching [dst] intact is still dropped
     when the filter vetoes the (src, dst) pair at delivery time *)
  mutable filter : (src:int -> dst:int -> bool) option;
  tx_until : float array;
  (* in-progress receptions per node, pruned lazily *)
  rx_active : reception list array;
  (* all in-progress transmissions, for carrier sense, as parallel arrays
     compacted in place: [busy_until] runs on every MAC backoff expiry, so
     rebuilding a (src, until) list there dominated kilonode allocation *)
  mutable air_src : int array;
  mutable air_until : float array;
  mutable air_len : int;
  mutable collision_count : int;
  collision_at : int array;
  (* spatial index pruning the per-frame neighbour scan; None = full scan *)
  grid : Grid.t option;
  (* the grid's bucketed coordinates ([||] without a grid), read in place
     by the pruning tests below *)
  bucket_x : float array;
  bucket_y : float array;
  (* per-(node, time) position memo: one frame event looks the same nodes
     up at the same instant many times, and Waypoint.position is a binary
     search per call. Flat x/y arrays keep the floats unboxed and the
     memo stores free of write barriers. *)
  pos_at : float array;
  pos_x : float array;
  pos_y : float array;
  (* --prof span for the synchronous transmit sweep, named for the
     neighbour-scan strategy so profiles separate grid from naive *)
  span_transmit : Obs.span;
}

(* frame-end delivery events, one per frame however many nodes hear it,
   distinct from the synchronous sweep above *)
let span_rx = Obs.span "event.channel.rx"

(* receptions the frame-end events walk: always on, so the per-reception
   count survives one event handling a whole frame *)
let receptions = Obs.counter "channel.receptions"

let create ?(trace = Trace.null) ?grid engine ~nodes ~position ~range ~cs_range =
  if cs_range < range then invalid_arg "Channel.create: cs_range < range";
  let grid =
    Option.map
      (fun { max_speed; epoch } ->
        Grid.create ~nodes ~position ~cell:(cs_range /. 2.0) ~max_speed ~epoch)
      grid
  in
  {
    engine;
    trace;
    nodes;
    position;
    range;
    cs_range;
    (* ~10 dB capture threshold at path-loss exponent 2 *)
    capture_ratio = 3.0;
    idle_guard = 60e-6;
    receivers = Array.make nodes None;
    filter = None;
    tx_until = Array.make nodes neg_infinity;
    rx_active = Array.make nodes [];
    air_src = Array.make 16 0;
    air_until = Array.make 16 neg_infinity;
    air_len = 0;
    collision_count = 0;
    collision_at = Array.make nodes 0;
    grid;
    bucket_x = (match grid with Some g -> Grid.bucketed_x g | None -> [||]);
    bucket_y = (match grid with Some g -> Grid.bucketed_y g | None -> [||]);
    pos_at = Array.make (Stdlib.max nodes 1) nan;
    pos_x = Array.make (Stdlib.max nodes 1) 0.0;
    pos_y = Array.make (Stdlib.max nodes 1) 0.0;
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
  if t.pos_at.(i) <> time then begin
    let p = t.position i time in
    t.pos_at.(i) <- time;
    t.pos_x.(i) <- p.Vec2.x;
    t.pos_y.(i) <- p.Vec2.y
  end

(* allocates a fresh pair; hot paths read pos_x/pos_y directly instead *)
let pos t i time =
  refresh_pos t i time;
  Vec2.make ~x:t.pos_x.(i) ~y:t.pos_y.(i)

(* compact the air arrays in place, keeping entries through the guard
   window (busy needs them); entry order never affects results — corrupt
   is idempotent per frame, busy_until takes a max, busy an exists *)
let prune t =
  let time = now t in
  let src = t.air_src and until = t.air_until in
  let k = ref 0 in
  for i = 0 to t.air_len - 1 do
    if until.(i) +. t.idle_guard > time then begin
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
    t.air_until <- until
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
  let dx = t.pos_x.(a) -. t.pos_x.(b) and dy = t.pos_y.(a) -. t.pos_y.(b) in
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
  let dx = t.bucket_x.(j) -. x and dy = t.bucket_y.(j) -. y in
  (dx *. dx) +. (dy *. dy) > reach *. reach

(* two bucketed positions: [reach] must count the slack twice *)
let[@inline] apart t a b ~reach =
  reach < infinity
  &&
  let dx = t.bucket_x.(a) -. t.bucket_x.(b)
  and dy = t.bucket_y.(a) -. t.bucket_y.(b) in
  (dx *. dx) +. (dy *. dy) > reach *. reach

(* Carrier sense reads the grid as last built and never rebuilds it, so
   [grid_rebuilds] counts only the sweeps that would rebuild anyway. *)
let sense_reach t time =
  let slack =
    match t.grid with None -> infinity | Some g -> Grid.slack g ~now:time
  in
  reach ~slack ~radius:t.cs_range ~ends:2.0

let busy t i =
  if transmitting t i then true
  else begin
    prune t;
    let time = now t in
    let far = sense_reach t time in
    let found = ref false in
    let k = ref 0 in
    while (not !found) && !k < t.air_len do
      let src = t.air_src.(!k) in
      if
        src <> i
        && t.air_until.(!k) +. t.idle_guard > time
        && (not (apart t i src ~reach:far))
        && within t i src ~radius:t.cs_range
      then found := true
      else incr k
    done;
    !found
  end

let busy_until t i =
  prune t;
  let time = now t in
  let horizon = ref time in
  if t.tx_until.(i) > !horizon then horizon := t.tx_until.(i);
  let far = sense_reach t time in
  for k = 0 to t.air_len - 1 do
    let src = t.air_src.(k) in
    let guarded = t.air_until.(k) +. t.idle_guard in
    if
      src <> i && guarded > !horizon
      && (not (apart t i src ~reach:far))
      && within t i src ~radius:t.cs_range
    then horizon := guarded
  done;
  !horizon

let neighbors t i =
  let time = now t in
  let pos_i = pos t i time in
  let xi = pos_i.Vec2.x and yi = pos_i.Vec2.y in
  let result = ref [] in
  let consider j =
    if j <> i then begin
      refresh_pos t j time;
      let dx = xi -. t.pos_x.(j) and dy = yi -. t.pos_y.(j) in
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

let corrupt t rx =
  if not rx.corrupted then begin
    rx.corrupted <- true;
    t.collision_count <- t.collision_count + 1;
    t.collision_at.(rx.node) <- t.collision_at.(rx.node) + 1;
    Trace.mac_collision t.trace ~node:rx.node
  end

(* Capture: a frame whose sender is [capture_ratio] times closer than a
   competing signal survives the overlap; otherwise the overlap corrupts
   it. Applied pairwise between overlapping frames and against
   non-decodable interference. *)
let clash t ~rx_a ~rx_b =
  if rx_a.dist *. t.capture_ratio <= rx_b.dist then corrupt t rx_b
  else if rx_b.dist *. t.capture_ratio <= rx_a.dist then corrupt t rx_a
  else begin
    corrupt t rx_a;
    corrupt t rx_b
  end

let interfere t rx ~interferer_dist =
  if rx.dist *. t.capture_ratio > interferer_dist then corrupt t rx

(* Top-level loops over a node's receptions: a [List.iter] or
   [List.exists] would allocate a closure on every swept candidate. *)
let rec corrupt_all t = function
  | [] -> ()
  | rx :: rest ->
      corrupt t rx;
      corrupt_all t rest

let rec clash_all t rx = function
  | [] -> ()
  | other :: rest ->
      clash t ~rx_a:rx ~rx_b:other;
      clash_all t rx rest

let rec interfere_all t ~interferer_dist = function
  | [] -> ()
  | rx :: rest ->
      interfere t rx ~interferer_dist;
      interfere_all t ~interferer_dist rest

let rec any_ended time = function
  | [] -> false
  | r :: rest -> r.rx_end <= time || any_ended time rest

(* the list without [rx], in order *)
let rec without rx = function
  | [] -> []
  | r :: rest -> if r == rx then rest else r :: without rx rest

(* [List.filter] allocates a fresh list even when nothing is removed;
   most sweeps find no expired reception, so test before rebuilding *)
let prune_rx t j time =
  let l = t.rx_active.(j) in
  if any_ended time l then
    t.rx_active.(j) <- List.filter (fun r -> r.rx_end > time) l

(* one receiver's end of the frame *)
let finish t ~src pdu rx =
  let j = rx.node in
  t.rx_active.(j) <- without rx t.rx_active.(j);
  if (not rx.corrupted) && (not (transmitting t j)) && deliverable t ~src ~dst:j
  then
    match t.receivers.(j) with Some deliver -> deliver ~src pdu | None -> ()

(* [heard] lists a frame's receptions newest first; finishing the rest
   before the head walks them oldest first, in sweep order. Returns how
   many it walked. *)
let rec finish_all t ~src pdu = function
  | [] -> 0
  | rx :: rest ->
      let walked = finish_all t ~src pdu rest in
      finish t ~src pdu rx;
      walked + 1

let transmit_body t ~src ~duration pdu =
  let time = now t in
  let tx_end = time +. duration in
  prune t;
  air_add t src tx_end;
  if tx_end > t.tx_until.(src) then t.tx_until.(src) <- tx_end;
  (* half duplex: starting a transmission ruins any reception in progress *)
  prune_rx t src time;
  corrupt_all t t.rx_active.(src);
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
  (* receptions this frame creates, newest first *)
  let heard = ref [] in
  let touch j =
    if j <> src then begin
      refresh_pos t j time;
      let jx = t.pos_x.(j) and jy = t.pos_y.(j) in
      (* sqrt of Vec2.dist_sq's expression == Vec2.dist, bit for bit *)
      let dxj = sx -. jx and dyj = sy -. jy in
      let d = sqrt ((dxj *. dxj) +. (dyj *. dyj)) in
      if d <= t.range then begin
        if transmitting t j then ()
          (* a transmitting node hears nothing; the frame is simply lost *)
        else begin
          let rx = { node = j; corrupted = false; rx_end = tx_end; dist = d } in
          prune_rx t j time;
          (* overlap with receptions already in progress: capture decides *)
          clash_all t rx t.rx_active.(j);
          (* interferers already in the air but too far to decode *)
          for k = 0 to t.air_len - 1 do
            let other_src = t.air_src.(k) in
            if
              other_src <> src && other_src <> j
              && t.air_until.(k) > time
              && not (beyond t other_src ~x:jx ~y:jy ~reach:cs_reach)
            then begin
              refresh_pos t other_src time;
              let dxo = t.pos_x.(other_src) -. jx
              and dyo = t.pos_y.(other_src) -. jy in
              let di = sqrt ((dxo *. dxo) +. (dyo *. dyo)) in
              if di > t.range && di <= t.cs_range then
                interfere t rx ~interferer_dist:di
            end
          done;
          t.rx_active.(j) <- rx :: t.rx_active.(j);
          heard := rx :: !heard
        end
      end
      else if d <= t.cs_range then begin
        (* interference zone: undecodable, but can stomp receptions *)
        prune_rx t j time;
        interfere_all t ~interferer_dist:d t.rx_active.(j)
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
      (* beyond [range] the body only stomps receptions in progress: a
         candidate with none that is provably out of range is skipped
         before its position is looked up *)
      let quiet_reach = reach ~slack ~radius:t.range ~ends:1.0 in
      Grid.iter g ~now:time ~center:pos_src ~radius:t.cs_range (fun j ->
          match t.rx_active.(j) with
          | [] when beyond t j ~x:sx ~y:sy ~reach:quiet_reach -> ()
          | _ -> touch j));
  (* One event ends the frame at every receiver. The sweep schedules
     nothing but this event, so it takes the tie number the first
     receiver's own event would have had, and whatever a receiver
     schedules for that instant takes a later one: the receivers run
     exactly as consecutive per-receiver events would. *)
  match !heard with
  | [] -> ()
  | heard ->
      ignore
        (Des.Engine.schedule ~span:span_rx t.engine ~delay:duration (fun () ->
             Obs.add receptions (finish_all t ~src pdu heard)))

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
