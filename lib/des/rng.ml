type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed = { state = seed }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

(* FNV-1a over the tag, folded into the parent's seed; draws nothing from
   the parent stream so substream identity depends only on (seed, tag). *)
let split t tag =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    tag;
  create (mix64 (Int64.add t.state (mix64 !h)))

let copy t = { state = t.state }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t bound =
  (* 53 random bits into [0,1) *)
  let mantissa = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float mantissa /. 9007199254740992.0 *. bound

let uniform t ~lo ~hi = lo +. float t (hi -. lo)

let exponential t ~mean =
  let u = float t 1.0 in
  (* 1 - u is in (0, 1], so log is finite *)
  -.mean *. log (1.0 -. u)

let bool t = Int64.logand (bits64 t) 1L = 1L
