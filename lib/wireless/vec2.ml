type t = { x : float; y : float }

let make ~x ~y = { x; y }

let zero = { x = 0.0; y = 0.0 }

let add a b = { x = a.x +. b.x; y = a.y +. b.y }

let sub a b = { x = a.x -. b.x; y = a.y -. b.y }

let scale k v = { x = k *. v.x; y = k *. v.y }

let dist_sq a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  (dx *. dx) +. (dy *. dy)

let dist a b = sqrt (dist_sq a b)

let norm v = sqrt ((v.x *. v.x) +. (v.y *. v.y))

(* add a (scale frac (sub b a)) as one record: the same float expression,
   so the same bits, without the two intermediate vectors *)
let lerp a b ~frac =
  { x = a.x +. (frac *. (b.x -. a.x)); y = a.y +. (frac *. (b.y -. a.y)) }

let equal a b = a.x = b.x && a.y = b.y
