type t = { width : float; height : float }

let make ~width ~height =
  if width <= 0.0 || height <= 0.0 then
    invalid_arg "Terrain.make: dimensions must be positive";
  { width; height }

let paper = make ~width:2200.0 ~height:600.0

let contains t p =
  p.Vec2.x >= 0.0 && p.Vec2.x <= t.width && p.Vec2.y >= 0.0
  && p.Vec2.y <= t.height

let random_point t rng =
  Vec2.make ~x:(Des.Rng.float rng t.width) ~y:(Des.Rng.float rng t.height)
