module type S = sig
  val name : string

  val generate :
    terrain:Terrain.t ->
    rng:Des.Rng.t ->
    nodes:int ->
    pause:float ->
    speed_min:float ->
    speed_max:float ->
    duration:float ->
    Waypoint.t array
end

type id = Waypoint_rw | Manhattan | Rpgm | Churn

let all = [ Waypoint_rw; Manhattan; Rpgm; Churn ]

let default = Waypoint_rw

let name = function
  | Waypoint_rw -> "waypoint"
  | Manhattan -> "manhattan"
  | Rpgm -> "rpgm"
  | Churn -> "churn"

(* ------------------------------------------------------------------ *)
(* Random waypoint — the paper's model, and the default instance. The
   per-node substream split mirrors the historical Sim.Runner loop
   byte-for-byte, so the default scenario's scripts (and every engine
   event downstream of them) are identical to the pre-registry build. *)

module Random_waypoint : S = struct
  let name = "waypoint"

  let generate ~terrain ~rng ~nodes ~pause ~speed_min ~speed_max ~duration =
    Array.init nodes (fun i ->
        Waypoint.generate ~terrain
          ~rng:(Des.Rng.split rng (string_of_int i))
          ~pause ~speed_min ~speed_max ~duration)
end

(* ------------------------------------------------------------------ *)
(* Manhattan-grid street mobility: nodes live on a grid of horizontal and
   vertical streets (spacing ~[block] metres, stretched so the outermost
   streets lie on the terrain boundary) and hop between adjacent
   intersections at a uniform speed, pausing [pause] at each corner.
   Every leg is axis-aligned along one street, so every interpolated
   position sits exactly on a street line — the property the fuzz
   catalogue checks. *)

let block = 150.0

(* street coordinates along one axis: at least two streets (the borders),
   spaced as close to [block] as divides the extent evenly *)
let streets extent =
  let n = 1 + Stdlib.max 1 (int_of_float (extent /. block)) in
  Array.init (n + 1) (fun i -> extent *. float_of_int i /. float_of_int n)

let manhattan_streets (terrain : Terrain.t) =
  (streets terrain.Terrain.width, streets terrain.Terrain.height)

module Manhattan_grid : S = struct
  let name = "manhattan"

  let generate ~terrain ~rng ~nodes ~pause ~speed_min ~speed_max ~duration =
    let xs, ys = manhattan_streets terrain in
    let nx = Array.length xs and ny = Array.length ys in
    let point ix iy = Vec2.make ~x:xs.(ix) ~y:ys.(iy) in
    Array.init nodes (fun i ->
        let rng = Des.Rng.split rng (string_of_int i) in
        let ix = ref (Des.Rng.int rng nx) and iy = ref (Des.Rng.int rng ny) in
        let initial = point !ix !iy in
        if speed_max <= 0.0 then Waypoint.stationary initial
        else begin
          let legs = ref [] in
          let time = ref 0.0 and pos = ref initial in
          while !time < duration do
            let depart = !time +. pause in
            (* neighbouring intersections, ascending (dx, dy) order *)
            let moves =
              List.filter
                (fun (dx, dy) ->
                  let jx = !ix + dx and jy = !iy + dy in
                  jx >= 0 && jx < nx && jy >= 0 && jy < ny)
                [ (-1, 0); (0, -1); (0, 1); (1, 0) ]
            in
            let dx, dy = List.nth moves (Des.Rng.int rng (List.length moves)) in
            ix := !ix + dx;
            iy := !iy + dy;
            let dest = point !ix !iy in
            let speed = Des.Rng.uniform rng ~lo:speed_min ~hi:speed_max in
            let travel =
              if speed > 0.0 then Vec2.dist !pos dest /. speed else infinity
            in
            legs :=
              {
                Waypoint.depart;
                arrive = depart +. travel;
                from_p = !pos;
                to_p = dest;
              }
              :: !legs;
            pos := dest;
            time := depart +. travel
          done;
          Waypoint.of_legs ~initial (List.rev !legs)
        end)
end

(* ------------------------------------------------------------------ *)
(* RPGM group mobility: nodes are partitioned into groups of ~[group_size];
   each group's reference point follows a random-waypoint script and every
   member rides it at a bounded offset. The offset drifts between leg
   boundaries, rate-limited so member speed never exceeds [speed_max] and
   norm-clamped to [radius] — then both leg endpoints are clamped to the
   terrain, which (projection onto a convex set) can only shrink the
   distance to the in-terrain reference point. Members therefore stay
   within [radius] of their leader at every instant. *)

let group_size = 4

let rpgm_radius = 50.0

(* group reference-point scripts — exposed so the group-radius property can
   compare members against the same leaders the model rode *)
let rpgm_leaders ~terrain ~rng ~nodes ~pause ~speed_min ~speed_max ~duration =
  let groups = 1 + ((nodes - 1) / group_size) in
  Array.init groups (fun g ->
      Waypoint.generate ~terrain
        ~rng:(Des.Rng.split rng (Printf.sprintf "leader-%d" g))
        ~pause ~speed_min ~speed_max ~duration)

module Rpgm_groups : S = struct
  let name = "rpgm"

  let clamp (terrain : Terrain.t) (p : Vec2.t) =
    Vec2.make
      ~x:(Float.min terrain.Terrain.width (Float.max 0.0 p.Vec2.x))
      ~y:(Float.min terrain.Terrain.height (Float.max 0.0 p.Vec2.y))

  (* an offset of norm <= radius, drifted from [prev] by at most [budget] *)
  let drift rng ~prev ~budget =
    let angle = Des.Rng.float rng (2.0 *. Float.pi) in
    let step = Des.Rng.float rng (Stdlib.max 0.0 budget) in
    let raw =
      Vec2.add prev (Vec2.make ~x:(step *. cos angle) ~y:(step *. sin angle))
    in
    let n = Vec2.norm raw in
    if n <= rpgm_radius || n <= 0.0 then raw
    else Vec2.scale (rpgm_radius /. n) raw

  let generate ~terrain ~rng ~nodes ~pause ~speed_min ~speed_max ~duration =
    let leaders =
      rpgm_leaders ~terrain ~rng ~nodes ~pause ~speed_min ~speed_max ~duration
    in
    Array.init nodes (fun i ->
        let leader = leaders.(i / group_size) in
        let rng = Des.Rng.split rng (Printf.sprintf "member-%d" i) in
        let off = ref (drift rng ~prev:Vec2.zero ~budget:rpgm_radius) in
        let initial = clamp terrain (Vec2.add (Waypoint.position leader 0.0) !off) in
        let pos = ref initial in
        let legs =
          List.map
            (fun (leg : Waypoint.leg) ->
              let span = leg.Waypoint.arrive -. leg.Waypoint.depart in
              let leader_speed =
                if span > 0.0 && Float.is_finite span then
                  Vec2.dist leg.Waypoint.from_p leg.Waypoint.to_p /. span
                else 0.0
              in
              let budget =
                if Float.is_finite span then
                  Stdlib.max 0.0 (speed_max -. leader_speed) *. span
                else 0.0
              in
              let next = drift rng ~prev:!off ~budget in
              off := next;
              let from_p = !pos in
              let to_p = clamp terrain (Vec2.add leg.Waypoint.to_p next) in
              pos := to_p;
              { leg with Waypoint.from_p; to_p })
            (Waypoint.legs leader)
        in
        Waypoint.of_legs ~initial legs)
end

(* ------------------------------------------------------------------ *)
(* Static-with-churn: the network is parked — each node sits at its spot
   for a long exponential dwell (mean [churn_dwell_frac] of the run, so a
   fair share of nodes never move at all), then relocates once to a fresh
   uniform point at a uniform speed and parks again. Topology changes are
   rare, abrupt and uncorrelated: the regime sequence-numbered protocols
   like best, and the opposite end of workload space from pause-0
   waypoint. *)

let churn_dwell_frac = 0.5

module Static_churn : S = struct
  let name = "churn"

  let generate ~terrain ~rng ~nodes ~pause:_ ~speed_min ~speed_max ~duration =
    Array.init nodes (fun i ->
        let rng = Des.Rng.split rng (string_of_int i) in
        let initial = Terrain.random_point terrain rng in
        if speed_max <= 0.0 then Waypoint.stationary initial
        else begin
          let legs = ref [] in
          let time = ref 0.0 and pos = ref initial in
          while !time < duration do
            let dwell =
              Des.Rng.exponential rng ~mean:(churn_dwell_frac *. duration)
            in
            let depart = !time +. dwell in
            let dest = Terrain.random_point terrain rng in
            let speed = Des.Rng.uniform rng ~lo:speed_min ~hi:speed_max in
            let travel =
              if speed > 0.0 then Vec2.dist !pos dest /. speed else infinity
            in
            legs :=
              {
                Waypoint.depart;
                arrive = depart +. travel;
                from_p = !pos;
                to_p = dest;
              }
              :: !legs;
            pos := dest;
            time := depart +. travel
          done;
          Waypoint.of_legs ~initial (List.rev !legs)
        end)
end

(* ------------------------------------------------------------------ *)

let instance : id -> (module S) = function
  | Waypoint_rw -> (module Random_waypoint)
  | Manhattan -> (module Manhattan_grid)
  | Rpgm -> (module Rpgm_groups)
  | Churn -> (module Static_churn)

let generate id ~terrain ~rng ~nodes ~pause ~speed_min ~speed_max ~duration =
  let (module M : S) = instance id in
  M.generate ~terrain ~rng ~nodes ~pause ~speed_min ~speed_max ~duration
