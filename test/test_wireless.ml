(* Tests for the wireless substrate: geometry, mobility, radio timing,
   channel propagation/collisions, and the 802.11-style MAC. *)

module V = Wireless.Vec2
module T = Wireless.Terrain
module W = Wireless.Waypoint
module Radio = Wireless.Radio
module Ch = Wireless.Channel
module Mac = Wireless.Mac80211
module Frame = Wireless.Frame

let vec x y = V.make ~x ~y

(* ------------------------------------------------------------------ *)
(* Geometry and mobility *)

let test_vec2 () =
  Alcotest.(check (float 1e-9)) "dist" 5.0 (V.dist (vec 0.0 0.0) (vec 3.0 4.0));
  Alcotest.(check (float 1e-9)) "norm" 5.0 (V.norm (vec 3.0 4.0));
  let m = V.lerp (vec 0.0 0.0) (vec 10.0 20.0) ~frac:0.25 in
  Alcotest.(check (float 1e-9)) "lerp x" 2.5 m.V.x;
  Alcotest.(check (float 1e-9)) "lerp y" 5.0 m.V.y

(* lerp builds one record from the expression the composed form
   evaluates, so the bits must match, not just the values *)
let test_lerp_bits () =
  let rng = Des.Rng.create 8L in
  let point () =
    vec
      (Des.Rng.uniform rng ~lo:(-5000.0) ~hi:5000.0)
      (Des.Rng.uniform rng ~lo:(-5000.0) ~hi:5000.0)
  in
  let fracs =
    [ 0.0; 1.0; 0.5; 1.0 /. 3.0 ] @ List.init 1000 (fun _ -> Des.Rng.float rng 1.0)
  in
  List.iter
    (fun frac ->
      let a = point () and b = point () in
      let got = V.lerp a b ~frac and want = V.add a (V.scale frac (V.sub b a)) in
      let bits f = Int64.bits_of_float f in
      Alcotest.(check int64) "x bits" (bits want.V.x) (bits got.V.x);
      Alcotest.(check int64) "y bits" (bits want.V.y) (bits got.V.y))
    fracs

let test_terrain () =
  let t = T.make ~width:100.0 ~height:50.0 in
  Alcotest.(check bool) "contains inside" true (T.contains t (vec 50.0 25.0));
  Alcotest.(check bool) "outside" false (T.contains t (vec 101.0 25.0));
  let rng = Des.Rng.create 3L in
  for _ = 1 to 200 do
    Alcotest.(check bool) "random point inside" true
      (T.contains t (T.random_point t rng))
  done;
  Alcotest.check_raises "bad terrain"
    (Invalid_argument "Terrain.make: dimensions must be positive") (fun () ->
      ignore (T.make ~width:0.0 ~height:5.0))

let test_waypoint_stationary () =
  let p = vec 10.0 20.0 in
  let s = W.stationary p in
  Alcotest.(check bool) "fixed" true (V.equal p (W.position s 0.0));
  Alcotest.(check bool) "fixed later" true (V.equal p (W.position s 1e6))

let generate_script ?(pause = 5.0) ?(seed = 11L) () =
  W.generate ~terrain:T.paper
    ~rng:(Des.Rng.create seed)
    ~pause ~speed_min:0.5 ~speed_max:20.0 ~duration:300.0

let test_waypoint_kinematics () =
  let s = generate_script () in
  (* position before the first departure equals the initial point *)
  let p0 = W.position s 0.0 in
  Alcotest.(check bool) "initial pause" true
    (V.equal p0 (W.position s 4.999));
  (* speed is bounded everywhere *)
  let max_speed = ref 0.0 in
  let dt = 0.5 in
  let steps = int_of_float (300.0 /. dt) in
  for k = 0 to steps - 1 do
    let t = float_of_int k *. dt in
    let v = V.dist (W.position s t) (W.position s (t +. dt)) /. dt in
    if v > !max_speed then max_speed := v
  done;
  Alcotest.(check bool)
    (Printf.sprintf "observed speed %.1f <= 20" !max_speed)
    true (!max_speed <= 20.0 +. 1e-6);
  Alcotest.(check bool) "script max speed <= 20" true (W.max_speed s <= 20.0);
  (* all positions stay on the terrain *)
  for k = 0 to steps do
    Alcotest.(check bool) "on terrain" true
      (T.contains T.paper (W.position s (float_of_int k *. dt)))
  done

let test_waypoint_pause_900_is_static () =
  let s =
    W.generate ~terrain:T.paper
      ~rng:(Des.Rng.create 17L)
      ~pause:900.0 ~speed_min:0.5 ~speed_max:20.0 ~duration:900.0
  in
  let p0 = W.position s 0.0 in
  Alcotest.(check bool) "no movement within the run" true
    (V.equal p0 (W.position s 899.9))

(* regression: pause = duration with speed range [0, 0] used to divide by
   zero when picking a leg speed — every position must stay finite,
   in-bounds, and pinned to the initial point *)
let test_waypoint_degenerate_speed () =
  List.iter
    (fun (pause, duration) ->
      let s =
        W.generate ~terrain:T.paper
          ~rng:(Des.Rng.create 23L)
          ~pause ~speed_min:0.0 ~speed_max:0.0 ~duration
      in
      let p0 = W.position s 0.0 in
      Alcotest.(check bool) "initial position finite" true
        (Float.is_finite p0.V.x && Float.is_finite p0.V.y);
      List.iter
        (fun t ->
          let p = W.position s t in
          Alcotest.(check bool) "position finite (no NaN)" true
            (Float.is_finite p.V.x && Float.is_finite p.V.y);
          Alcotest.(check bool) "position on terrain" true
            (T.contains T.paper p);
          Alcotest.(check bool) "zero speed never moves" true (V.equal p0 p))
        [ 0.0; pause /. 2.0; pause; duration; duration +. 10.0 ])
    [ (300.0, 300.0); (0.0, 300.0); (900.0, 100.0) ]

let test_waypoint_deterministic () =
  let a = generate_script ~seed:5L () and b = generate_script ~seed:5L () in
  Alcotest.(check bool) "same seed same trajectory" true
    (List.for_all
       (fun t -> V.equal (W.position a t) (W.position b t))
       [ 0.0; 10.0; 100.0; 299.0 ])

(* ------------------------------------------------------------------ *)
(* Radio timing *)

let test_radio_durations () =
  (* 512B payload + 28B MAC header at 2 Mb/s + 192us PLCP *)
  Alcotest.(check (float 1e-9)) "data airtime"
    (192e-6 +. (float_of_int ((512 + 28) * 8) /. 2e6))
    (Radio.tx_duration ~size:512);
  Alcotest.(check bool) "ack shorter than data" true
    (Radio.ack_duration < Radio.tx_duration ~size:512);
  Alcotest.(check bool) "rts short" true (Radio.rts_duration < 0.5e-3)

(* ------------------------------------------------------------------ *)
(* Channel *)

(* stationary scripts at the given points *)
let fixed points = Array.map (fun (x, y) -> W.stationary (vec x y)) points

(* fixed positions: nodes on a line, 200 m apart *)
let line_scripts n = fixed (Array.init n (fun i -> (float_of_int i *. 200.0, 0.0)))

let line_channel ?grid engine n =
  Ch.create ?grid engine ~scripts:(line_scripts n) ~range:250.0 ~cs_range:550.0

let test_channel_delivery () =
  let e = Des.Engine.create () in
  let ch = line_channel e 3 in
  let at_1 = ref [] and at_2 = ref [] in
  Ch.set_receiver ch 1 (fun ~src pdu -> at_1 := (src, pdu) :: !at_1);
  Ch.set_receiver ch 2 (fun ~src pdu -> at_2 := (src, pdu) :: !at_2);
  Ch.transmit ch ~src:0 ~duration:1e-3 "hello";
  Des.Engine.run_all e;
  (* node 1 is 200 m away (in range); node 2 is 400 m away (out of range) *)
  Alcotest.(check (list (pair int string))) "node 1 hears node 0"
    [ (0, "hello") ] !at_1;
  Alcotest.(check (list (pair int string))) "node 2 hears nothing" [] !at_2

let test_channel_collision () =
  let e = Des.Engine.create () in
  (* nodes 0 and 2 are 400 m apart (hidden from each other at rx range but
     both in range of node 1) *)
  let ch = line_channel e 3 in
  let got = ref 0 in
  Ch.set_receiver ch 1 (fun ~src:_ _ -> incr got);
  Ch.transmit ch ~src:0 ~duration:1e-3 "a";
  ignore
    (Des.Engine.schedule e ~delay:1e-4 (fun () ->
         Ch.transmit ch ~src:2 ~duration:1e-3 "b"));
  Des.Engine.run_all e;
  Alcotest.(check int) "both frames corrupted" 0 !got;
  Alcotest.(check bool) "collision counted" true (Ch.collisions ch >= 1);
  Alcotest.(check bool) "at the receiver" true (Ch.collisions_at ch 1 >= 1)

let test_channel_capture () =
  let e = Des.Engine.create () in
  (* receiver at 0; near sender at 50 m; far sender at 400 m: the near frame
     is >3x closer and survives the overlap *)
  let scripts = fixed [| (0.0, 0.0); (50.0, 0.0); (400.0, 0.0) |] in
  let ch = Ch.create e ~scripts ~range:450.0 ~cs_range:990.0 in
  let got = ref [] in
  Ch.set_receiver ch 0 (fun ~src pdu -> got := (src, pdu) :: !got);
  Ch.transmit ch ~src:2 ~duration:1e-3 "far";
  ignore
    (Des.Engine.schedule e ~delay:1e-4 (fun () ->
         Ch.transmit ch ~src:1 ~duration:1e-3 "near"));
  Des.Engine.run_all e;
  Alcotest.(check (list (pair int string))) "near frame captured"
    [ (1, "near") ] !got

let test_channel_half_duplex () =
  let e = Des.Engine.create () in
  let ch = line_channel e 2 in
  let got = ref 0 in
  Ch.set_receiver ch 1 (fun ~src:_ _ -> incr got);
  (* node 1 is transmitting while node 0's frame arrives *)
  Ch.transmit ch ~src:1 ~duration:2e-3 "mine";
  ignore
    (Des.Engine.schedule e ~delay:1e-4 (fun () ->
         Ch.transmit ch ~src:0 ~duration:1e-3 "theirs"));
  Des.Engine.run_all e;
  Alcotest.(check int) "transmitter hears nothing" 0 !got

let test_channel_carrier_sense () =
  let e = Des.Engine.create () in
  let ch = line_channel e 4 in
  let busy i = Ch.busy_until ch i > Des.Engine.now e in
  Alcotest.(check bool) "idle" false (busy 1);
  Ch.transmit ch ~src:0 ~duration:1e-3 "x";
  Alcotest.(check bool) "busy in cs range (200 m)" true (busy 1);
  Alcotest.(check bool) "busy at 400 m (within 550 cs)" true (busy 2);
  Alcotest.(check bool) "idle at 600 m" false (busy 3);
  Alcotest.(check bool) "busy_until covers airtime" true
    (Ch.busy_until ch 1 >= 1e-3);
  ignore
    (Des.Engine.schedule e ~delay:2e-3 (fun () ->
         Alcotest.(check bool) "idle after" false (busy 1)));
  Des.Engine.run_all e

let test_channel_neighbors () =
  let e = Des.Engine.create () in
  let ch = line_channel e 5 in
  Alcotest.(check (list int)) "neighbors of 2" [ 1; 3 ] (Ch.neighbors ch 2);
  Alcotest.(check bool) "in_range" true (Ch.in_range ch 0 1);
  Alcotest.(check bool) "not in range" false (Ch.in_range ch 0 2)

(* The frame-end contract. Node 2 broadcasts to four receivers whose
   distances (220, 50, 150 and 100 m) do not follow their ids; on the
   grid, node 0 sits alone in a second cell, so bucket order does not
   follow them either. *)
let star = [| (520.0, 300.0); (300.0, 350.0); (300.0, 300.0); (150.0, 300.0);
               (300.0, 200.0) |]

let star_channel grid =
  let e = Des.Engine.create () in
  let ch = Ch.create ?grid e ~scripts:(fixed star) ~range:250.0 ~cs_range:550.0 in
  (e, ch)

let grid_static = Some { Ch.max_speed = 0.0; epoch = 0.25 }

let receptions = Obs.counter "channel.receptions"

let test_frame_end_one_event grid () =
  let e, ch = star_channel grid in
  let log = ref [] in
  let note entry = log := entry :: !log in
  List.iter
    (fun i ->
      Ch.set_receiver ch i (fun ~src:_ _ ->
          (* every delivery runs inside the first executed event *)
          note (Printf.sprintf "rx %d in event %d" i (Des.Engine.executed e));
          if i = 0 then
            ignore
              (Des.Engine.schedule e ~delay:0.0 (fun () -> note "follow-up"))))
    [ 0; 1; 3; 4 ];
  let before = Obs.counter_value receptions in
  Ch.transmit ch ~src:2 ~duration:1e-3 "x";
  Des.Engine.run_all e;
  Alcotest.(check (list string))
    "ascending ids in one event, then what the first receiver scheduled"
    [
      "rx 0 in event 1"; "rx 1 in event 1"; "rx 3 in event 1";
      "rx 4 in event 1"; "follow-up";
    ]
    (List.rev !log);
  Alcotest.(check int) "frame end + follow-up" 2 (Des.Engine.executed e);
  Alcotest.(check int) "four receptions counted" 4
    (Obs.counter_value receptions - before)

let test_frame_end_past_until grid () =
  let e, ch = star_channel grid in
  let got = ref 0 in
  List.iter
    (fun i -> Ch.set_receiver ch i (fun ~src:_ _ -> incr got))
    [ 0; 1; 3; 4 ];
  let before = Obs.counter_value receptions in
  Ch.transmit ch ~src:2 ~duration:1e-3 "x";
  Des.Engine.run e ~until:5e-4;
  Alcotest.(check int) "nobody hears an unfinished frame" 0 !got;
  Alcotest.(check int) "no reception counted" 0
    (Obs.counter_value receptions - before);
  Des.Engine.run_all e;
  Alcotest.(check int) "all four once it ends" 4 !got;
  Alcotest.(check int) "then counted once each" 4
    (Obs.counter_value receptions - before)

(* A frame that ends at the very instant another node starts to transmit,
   when that transmission was scheduled first. Node 0 sends to node 1,
   200 m away. Node 2 starts as that frame ends; node 1 lies in its
   interference zone (400 m) and node 3 in its range. The new frame's
   sweep prunes the ended reception from node 1's in-progress chain, so
   the reception escapes the interference, and the frame-end event that
   runs next still delivers it. Its slot outlives the pruning: had
   pruning freed it, node 3's new reception would take it over and the
   first frame would end at node 3. *)
let test_end_meets_start grid () =
  let e = Des.Engine.create () in
  let scripts = fixed [| (0.0, 0.0); (200.0, 0.0); (600.0, 0.0); (800.0, 0.0) |] in
  let ch = Ch.create ?grid e ~scripts ~range:250.0 ~cs_range:550.0 in
  let log = ref [] in
  for i = 0 to 3 do
    Ch.set_receiver ch i (fun ~src pdu ->
        log := (Des.Engine.now e, i, src, pdu) :: !log)
  done;
  ignore
    (Des.Engine.schedule_at e ~time:1e-3 (fun () ->
         Ch.transmit ch ~src:2 ~duration:1e-3 "second"));
  Ch.transmit ch ~src:0 ~duration:1e-3 "first";
  Des.Engine.run_all e;
  let entry = Alcotest.(pair (pair (float 0.0) int) (pair int string)) in
  Alcotest.(check (list entry))
    "node 1 hears the first frame as it ends, node 3 the second"
    [ ((1e-3, 1), (0, "first")); ((2e-3, 3), (2, "second")) ]
    (List.rev_map (fun (t, i, src, pdu) -> ((t, i), (src, pdu))) !log);
  Alcotest.(check int) "the ended reception escaped the interference" 0
    (Ch.collisions ch)

(* Three senders 240 m from node 0 and out of range of one another start
   a frame each, 0.1 ms apart, at equal distance, so no capture. Each new
   reception clashes with node 0's receptions in progress, newest first:
   the second frame corrupts itself and the first, the third corrupts
   itself and finds both others corrupted already. Every reception is
   corrupted and counted once and leaves one mac-collision record. *)
let test_overlap_clash grid () =
  let e = Des.Engine.create () in
  let records = ref [] in
  let trace =
    Trace.callback
      ~clock:(fun () -> Des.Engine.now e)
      (fun r ->
        match r.Trace.ev with
        | Trace.Mac_collision -> records := r.Trace.node :: !records
        | _ -> ())
  in
  let scripts = fixed [| (0.0, 0.0); (240.0, 0.0); (-240.0, 0.0); (0.0, 240.0) |] in
  let ch = Ch.create ~trace ?grid e ~scripts ~range:250.0 ~cs_range:550.0 in
  let got = ref 0 in
  Ch.set_receiver ch 0 (fun ~src:_ _ -> incr got);
  List.iter
    (fun src ->
      ignore
        (Des.Engine.schedule_at e
           ~time:(float_of_int (src - 1) *. 1e-4)
           (fun () -> Ch.transmit ch ~src ~duration:1e-3 src)))
    [ 1; 2; 3 ];
  Des.Engine.run_all e;
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "three collisions at node 0" 3 (Ch.collisions_at ch 0);
  Alcotest.(check int) "and none elsewhere" 3 (Ch.collisions ch);
  Alcotest.(check (list int)) "one record per reception" [ 0; 0; 0 ] !records

let sweep_gathered = Obs.counter "channel.grid.gathered"

let sweep_sorted = Obs.counter "channel.grid.sorted"

(* The sweep's quiet filter at the channel level. Node 2 sends; node 0 is
   in range, nodes 1 and 3 sit in its interference zone, and node 3 is
   receiving node 4's frame while node 1 receives nothing. Node 5 is far
   away, so the grid's query does not cover every bucket and gathers in
   bucket (x) order: 4, 3, 2, 0, 1. Both channels must stomp node 3's
   reception and deliver to node 0; the grid's sweep must drop quiet
   node 1 before it sorts and hand over nodes 0, 2 and 3. *)
let test_sweep_filter_channel grid () =
  let e = Des.Engine.create () in
  let scripts =
    fixed
      [| (100.0, 0.0); (400.0, 0.0); (0.0, 0.0); (-400.0, 0.0); (-600.0, 0.0);
         (3000.0, 0.0) |]
  in
  let ch = Ch.create ?grid e ~scripts ~range:250.0 ~cs_range:550.0 in
  let log = ref [] in
  for i = 0 to 5 do
    Ch.set_receiver ch i (fun ~src _ -> log := (i, src) :: !log)
  done;
  let swept = ref (0, 0) in
  Ch.transmit ch ~src:4 ~duration:1e-3 ();
  ignore
    (Des.Engine.schedule_at e ~time:1e-4 (fun () ->
         let g = Obs.counter_value sweep_gathered
         and s = Obs.counter_value sweep_sorted in
         Ch.transmit ch ~src:2 ~duration:1e-3 ();
         swept :=
           ( Obs.counter_value sweep_gathered - g,
             Obs.counter_value sweep_sorted - s )));
  Des.Engine.run_all e;
  Alcotest.(check (list (pair int int))) "only node 0 hears a frame" [ (0, 2) ]
    !log;
  Alcotest.(check int) "node 3's reception stomped" 1 (Ch.collisions_at ch 3);
  Alcotest.(check int) "and nothing else" 1 (Ch.collisions ch);
  Alcotest.(check (pair int int)) "gathered 0-3, handed over all but node 1"
    (if Option.is_some grid then (4, 3) else (0, 0))
    !swept

(* The same filter on the grid alone, on both of its sorting branches.
   Nodes sit 10 m apart on a line, placed in a scrambled id order so
   bucket order is not id order; [keep] rejects every third id. *)
let test_sweep_filter_grid () =
  let n = 100 in
  let place j = 10.0 *. float_of_int ((j * 37) mod n) in
  let g =
    Wireless.Grid.create
      ~positions:
        (W.cache (Array.init n (fun j -> W.stationary (vec (place j) 0.0))))
      ~cell:50.0 ~max_speed:0.0 ~epoch:1.0
  in
  let keep j = j mod 3 <> 0 in
  let query ~radius =
    let center = vec 500.0 0.0 in
    let asked = Hashtbl.create 16 and got = ref [] in
    Wireless.Grid.iter g ~now:0.0 ~center ~radius
      ~keep:(fun j ->
        Hashtbl.replace asked j ();
        keep j)
      (fun j -> got := j :: !got);
    let within j = Float.abs (place j -. 500.0) <= radius +. Wireless.Grid.margin in
    let want = List.filter (fun j -> within j && keep j) (List.init n Fun.id) in
    Alcotest.(check (list int))
      (Printf.sprintf "radius %g: the kept candidates, ascending" radius)
      want (List.rev !got);
    Alcotest.(check bool) "every handed-over node was asked" true
      (List.for_all (Hashtbl.mem asked) want);
    List.length want
  in
  let m = query ~radius:40.0 in
  Alcotest.(check bool) "insertion branch (m^2 <= 4n)" true (m * m <= 4 * n);
  let m = query ~radius:200.0 in
  Alcotest.(check bool) "mask branch (m^2 > 4n, m < n)" true
    (m * m > 4 * n && m < n)

(* ------------------------------------------------------------------ *)
(* Spatial hash grid *)

let scatter ~seed n =
  let rng = Des.Rng.create (Int64.of_int seed) in
  Array.init n (fun _ -> T.random_point T.paper rng)

let still points = Array.map W.stationary points

let test_grid_superset () =
  (* with max_speed 0 the inflated radius equals the query radius, and the
     bucket sweep must still cover every node the exact disc contains *)
  let n = 60 in
  let points = scatter ~seed:9 n in
  let g =
    Wireless.Grid.create ~positions:(W.cache (still points)) ~cell:100.0
      ~max_speed:0.0 ~epoch:1.0
  in
  Array.iteri
    (fun c center ->
      List.iter
        (fun radius ->
          let candidates = Hashtbl.create 16 in
          Wireless.Grid.iter g ~now:0.0 ~center ~radius (fun j ->
              Hashtbl.replace candidates j ());
          for j = 0 to n - 1 do
            if V.dist center points.(j) <= radius then
              Alcotest.(check bool)
                (Printf.sprintf "node %d in candidates of query %d" j c)
                true
                (Hashtbl.mem candidates j)
          done)
        [ 50.0; 250.0; 550.0 ])
    points

let test_grid_ascending_order () =
  let n = 80 in
  let points = scatter ~seed:21 n in
  let g =
    Wireless.Grid.create ~positions:(W.cache (still points)) ~cell:137.5
      ~max_speed:20.0 ~epoch:0.25
  in
  Array.iter
    (fun center ->
      List.iter
        (fun radius ->
          let last = ref (-1) in
          Wireless.Grid.iter g ~now:0.5 ~center ~radius (fun j ->
              Alcotest.(check bool) "strictly ascending" true (j > !last);
              last := j))
        [ 100.0; 300.0; 550.0; 2000.0 ])
    points

(* The pruning bound at its edge. Node 1 is bucketed 555 m from node 0 at
   t = 0 and moves straight at it at max_speed (20 m/s), so at t = 0.25,
   one epoch later, it is exactly 550 m away: on the carrier-sense rim.
   Only the slack (20 m/s x 0.25 s) keeps it from being pruned. *)
let edge_scripts =
  [|
    W.stationary (vec 0.0 0.0);
    W.of_legs ~initial:(vec 555.0 0.0)
      [
        {
          W.depart = 0.0;
          arrive = 0.5;
          from_p = vec 555.0 0.0;
          to_p = vec 545.0 0.0;
        };
      ];
  |]

let edge_position i t = W.position edge_scripts.(i) t

let test_grid_bound_edge () =
  Alcotest.(check (float 0.0)) "550 m apart at t = 0.25" 550.0
    (V.dist (edge_position 0 0.25) (edge_position 1 0.25));
  let g =
    Wireless.Grid.create ~positions:(W.cache edge_scripts) ~cell:275.0
      ~max_speed:20.0 ~epoch:0.25
  in
  Wireless.Grid.rebuild g ~now:0.0;
  let seen = ref [] in
  Wireless.Grid.iter g ~now:0.25 ~center:(edge_position 0 0.25) ~radius:550.0
    (fun j -> seen := j :: !seen);
  Alcotest.(check (list int)) "still a candidate" [ 0; 1 ] (List.rev !seen);
  Alcotest.(check int) "buckets one epoch old are reused" 1
    (Wireless.Grid.rebuilds g)

let test_carrier_sense_bound_edge () =
  let e = Des.Engine.create () in
  let ch =
    Ch.create
      ~grid:{ Ch.max_speed = 20.0; epoch = 0.25 }
      e ~scripts:edge_scripts ~range:250.0 ~cs_range:550.0
  in
  (* node 1's frame builds the grid with both nodes 555 m apart *)
  Ch.transmit ch ~src:1 ~duration:0.3 ();
  Alcotest.(check (float 0.0)) "idle at 555 m" 0.0 (Ch.busy_until ch 0);
  let probe time ~busy_until =
    ignore
      (Des.Engine.schedule_at e ~time (fun () ->
           Alcotest.(check (float 0.0))
             (Printf.sprintf "busy at t = %g until the guard ends" time)
             busy_until (Ch.busy_until ch 0)))
  in
  (* on the rim, then inside it with the grid past its epoch *)
  probe 0.25 ~busy_until:(0.3 +. 60e-6);
  probe 0.28 ~busy_until:(0.3 +. 60e-6);
  Des.Engine.run_all e;
  Alcotest.(check int) "carrier sense never rebuilds the grid" 1
    (Ch.grid_rebuilds ch)

let test_grid_channel_equivalence () =
  (* the same broadcast schedule through a naive and a grid channel:
     delivery logs and collision counters must agree exactly *)
  let n = 40 in
  let scripts = still (scatter ~seed:33 n) in
  let run grid =
    let e = Des.Engine.create () in
    let ch = Ch.create ?grid e ~scripts ~range:250.0 ~cs_range:550.0 in
    let log = ref [] in
    for i = 0 to n - 1 do
      Ch.set_receiver ch i (fun ~src pdu ->
          log := (Des.Engine.now e, i, src, pdu) :: !log)
    done;
    for k = 0 to 19 do
      ignore
        (Des.Engine.schedule_at e
           ~time:(float_of_int k *. 3e-4)
           (fun () -> Ch.transmit ch ~src:(k * 7 mod n) ~duration:1e-3 k))
    done;
    Des.Engine.run_all e;
    (List.rev !log, Ch.collisions ch, List.init n (Ch.collisions_at ch))
  in
  let naive = run None in
  let gridded = run (Some { Ch.max_speed = 0.0; epoch = 0.25 }) in
  let log_n, coll_n, per_n = naive and log_g, coll_g, per_g = gridded in
  Alcotest.(check int) "same delivery count" (List.length log_n)
    (List.length log_g);
  Alcotest.(check bool) "same delivery log" true (log_n = log_g);
  Alcotest.(check int) "same collision total" coll_n coll_g;
  Alcotest.(check (list int)) "same per-node collisions" per_n per_g

(* ------------------------------------------------------------------ *)
(* MAC *)

type Frame.payload += Probe of int

let mac_world ?filter n =
  let e = Des.Engine.create () in
  let ch = line_channel e n in
  Option.iter (Ch.set_filter ch) filter;
  let received = Array.make n [] in
  let failed = ref [] in
  let succeeded = ref [] in
  let macs =
    Array.init n (fun i ->
        Mac.create e ch ~id:i
          ~rng:(Des.Rng.create (Int64.of_int (100 + i)))
          {
            Mac.on_receive =
              (fun ~src frame -> received.(i) <- (src, frame) :: received.(i));
            on_unicast_success =
              (fun ~frame:_ ~dst -> succeeded := dst :: !succeeded);
            on_unicast_fail = (fun ~frame:_ ~dst -> failed := dst :: !failed);
          })
  in
  (e, macs, received, failed, succeeded)

let probe_frame ~src ~dst ~size k =
  Frame.make ~src ~dst ~size ~payload:(Probe k)

let test_mac_unicast_success () =
  let e, macs, received, failed, succeeded = mac_world 2 in
  Mac.send macs.(0) (probe_frame ~src:0 ~dst:(Frame.Unicast 1) ~size:512 1);
  Des.Engine.run e ~until:1.0;
  Alcotest.(check int) "delivered" 1 (List.length received.(1));
  Alcotest.(check (list int)) "ack success" [ 1 ] !succeeded;
  Alcotest.(check (list int)) "no failure" [] !failed;
  let s = Mac.stats macs.(0) in
  Alcotest.(check int) "one control tx (probe payload)" 1 s.Mac.tx_control

let test_mac_unicast_fail_when_unreachable () =
  let e, macs, received, failed, _ = mac_world 3 in
  (* node 2 is 400 m from node 0: out of range, so retries exhaust *)
  Mac.send macs.(0) (probe_frame ~src:0 ~dst:(Frame.Unicast 2) ~size:512 1);
  Des.Engine.run e ~until:5.0;
  Alcotest.(check (list int)) "failure reported" [ 2 ] !failed;
  Alcotest.(check int) "nothing delivered" 0 (List.length received.(2));
  Alcotest.(check int) "drop counted" 1 (Mac.stats macs.(0)).Mac.drop_retry

let test_mac_duplicate_suppressed () =
  (* every frame from node 1 to node 0 is lost, so node 0 hears no ACK and
     resends its frame (64 bytes: no RTS) until the retry limit; node 1
     acknowledges every copy but hands the frame up once *)
  let filter ~src ~dst = not (src = 1 && dst = 0) in
  let e, macs, received, failed, _ = mac_world ~filter 2 in
  Mac.send macs.(0) (probe_frame ~src:0 ~dst:(Frame.Unicast 1) ~size:64 1);
  Des.Engine.run e ~until:5.0;
  Alcotest.(check int) "every retry sent" (Radio.retry_limit + 1)
    (Mac.stats macs.(0)).Mac.tx_control;
  Alcotest.(check int) "delivered once" 1 (List.length received.(1));
  Alcotest.(check (list int)) "failure reported" [ 1 ] !failed

let test_mac_broadcast () =
  let e, macs, received, _, _ = mac_world 3 in
  Mac.send macs.(1) (probe_frame ~src:1 ~dst:Frame.Broadcast ~size:64 9);
  Des.Engine.run e ~until:1.0;
  Alcotest.(check int) "node 0 heard" 1 (List.length received.(0));
  Alcotest.(check int) "node 2 heard" 1 (List.length received.(2));
  let s = Mac.stats macs.(1) in
  Alcotest.(check int) "control tx" 1 s.Mac.tx_control

let test_mac_queue_overflow () =
  let e, macs, _, _, _ = mac_world 2 in
  for k = 1 to Radio.queue_limit + 10 do
    Mac.send macs.(0) (probe_frame ~src:0 ~dst:(Frame.Unicast 1) ~size:512 k)
  done;
  let s = Mac.stats macs.(0) in
  Alcotest.(check int) "overflow drops" 10 s.Mac.drop_queue_full;
  Des.Engine.run e ~until:60.0;
  let s = Mac.stats macs.(0) in
  Alcotest.(check int) "rest transmitted" Radio.queue_limit s.Mac.tx_control

let test_mac_serialises_contenders () =
  (* two senders in carrier-sense range of each other both unicast to the
     middle node; with carrier sense + RTS/CTS both must get through *)
  let e, macs, received, failed, _ = mac_world 3 in
  for k = 1 to 10 do
    Mac.send macs.(0) (probe_frame ~src:0 ~dst:(Frame.Unicast 1) ~size:512 k);
    Mac.send macs.(2) (probe_frame ~src:2 ~dst:(Frame.Unicast 1) ~size:512 k)
  done;
  Des.Engine.run e ~until:30.0;
  Alcotest.(check (list int)) "no failures" [] !failed;
  Alcotest.(check int) "all 20 delivered" 20 (List.length received.(1))

let test_mac_data_vs_control_classification () =
  let e, macs, _, _, _ = mac_world 2 in
  let data =
    {
      Frame.origin = 0;
      final_dst = 1;
      flow = 0;
      seq = 1;
      sent_at = 0.0;
      hops = 0;
    }
  in
  Mac.send macs.(0)
    (Frame.make ~src:0 ~dst:(Frame.Unicast 1) ~size:532
       ~payload:(Frame.Data data));
  Mac.send macs.(0) (probe_frame ~src:0 ~dst:(Frame.Unicast 1) ~size:64 1);
  Des.Engine.run e ~until:2.0;
  let s = Mac.stats macs.(0) in
  Alcotest.(check int) "one data" 1 s.Mac.tx_data;
  Alcotest.(check int) "one control" 1 s.Mac.tx_control

let test_frame_classification () =
  let data =
    {
      Frame.origin = 0;
      final_dst = 1;
      flow = 0;
      seq = 1;
      sent_at = 0.0;
      hops = 0;
    }
  in
  let f =
    Frame.make ~src:0 ~dst:Frame.Broadcast ~size:10 ~payload:(Frame.Data data)
  in
  Alcotest.(check bool) "data payload is data" true (Frame.is_data f);
  let c = Frame.make ~src:0 ~dst:Frame.Broadcast ~size:10 ~payload:(Probe 1) in
  Alcotest.(check bool) "other payload is control" false (Frame.is_data c);
  let reclassified = Frame.with_cls c Frame.Data_frame in
  Alcotest.(check bool) "reclassified" true (Frame.is_data reclassified)

let () =
  Alcotest.run "wireless"
    [
      ( "geometry",
        [
          Alcotest.test_case "vec2" `Quick test_vec2;
          Alcotest.test_case "lerp bits" `Quick test_lerp_bits;
          Alcotest.test_case "terrain" `Quick test_terrain;
        ] );
      ( "waypoint",
        [
          Alcotest.test_case "stationary" `Quick test_waypoint_stationary;
          Alcotest.test_case "kinematics" `Quick test_waypoint_kinematics;
          Alcotest.test_case "pause 900 static" `Quick test_waypoint_pause_900_is_static;
          Alcotest.test_case "degenerate speed range" `Quick
            test_waypoint_degenerate_speed;
          Alcotest.test_case "deterministic" `Quick test_waypoint_deterministic;
        ] );
      ( "radio",
        [ Alcotest.test_case "durations" `Quick test_radio_durations ] );
      ( "channel",
        [
          Alcotest.test_case "delivery and range" `Quick test_channel_delivery;
          Alcotest.test_case "hidden-terminal collision" `Quick test_channel_collision;
          Alcotest.test_case "capture effect" `Quick test_channel_capture;
          Alcotest.test_case "half duplex" `Quick test_channel_half_duplex;
          Alcotest.test_case "carrier sense" `Quick test_channel_carrier_sense;
          Alcotest.test_case "neighbors" `Quick test_channel_neighbors;
          Alcotest.test_case "frame end: one event, sweep order (naive)" `Quick
            (test_frame_end_one_event None);
          Alcotest.test_case "frame end: one event, sweep order (grid)" `Quick
            (test_frame_end_one_event grid_static);
          Alcotest.test_case "frame end past until (naive)" `Quick
            (test_frame_end_past_until None);
          Alcotest.test_case "frame end past until (grid)" `Quick
            (test_frame_end_past_until grid_static);
          Alcotest.test_case "end meets start (naive)" `Quick
            (test_end_meets_start None);
          Alcotest.test_case "end meets start (grid)" `Quick
            (test_end_meets_start grid_static);
          Alcotest.test_case "overlaps clash once each (naive)" `Quick
            (test_overlap_clash None);
          Alcotest.test_case "overlaps clash once each (grid)" `Quick
            (test_overlap_clash grid_static);
          Alcotest.test_case "sweep drops quiet nodes (naive)" `Quick
            (test_sweep_filter_channel None);
          Alcotest.test_case "sweep drops quiet nodes (grid)" `Quick
            (test_sweep_filter_channel grid_static);
        ] );
      ( "grid",
        [
          Alcotest.test_case "candidate superset" `Quick test_grid_superset;
          Alcotest.test_case "ascending iteration" `Quick
            test_grid_ascending_order;
          Alcotest.test_case "sweep filter before the sort" `Quick
            test_sweep_filter_grid;
          Alcotest.test_case "naive/grid channel equivalence" `Quick
            test_grid_channel_equivalence;
          Alcotest.test_case "bound at its edge" `Quick test_grid_bound_edge;
          Alcotest.test_case "carrier sense at the bound's edge" `Quick
            test_carrier_sense_bound_edge;
        ] );
      ( "mac",
        [
          Alcotest.test_case "unicast success" `Quick test_mac_unicast_success;
          Alcotest.test_case "unicast failure" `Quick test_mac_unicast_fail_when_unreachable;
          Alcotest.test_case "duplicate delivered once" `Quick
            test_mac_duplicate_suppressed;
          Alcotest.test_case "broadcast" `Quick test_mac_broadcast;
          Alcotest.test_case "queue overflow" `Quick test_mac_queue_overflow;
          Alcotest.test_case "contention serialisation" `Quick test_mac_serialises_contenders;
          Alcotest.test_case "data/control classification" `Quick
            test_mac_data_vs_control_classification;
          Alcotest.test_case "frame classification" `Quick test_frame_classification;
        ] );
    ]
