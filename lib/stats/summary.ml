type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

(* Chan et al. parallel-merge formulas. *)
let merge t other =
  if other.n > 0 then
    if t.n = 0 then begin
      t.n <- other.n;
      t.mean <- other.mean;
      t.m2 <- other.m2;
      t.min <- other.min;
      t.max <- other.max
    end
    else begin
      let n_total = t.n + other.n in
      let delta = other.mean -. t.mean in
      let mean =
        t.mean +. (delta *. float_of_int other.n /. float_of_int n_total)
      in
      let m2 =
        t.m2 +. other.m2
        +. delta *. delta
           *. float_of_int t.n *. float_of_int other.n
           /. float_of_int n_total
      in
      t.n <- n_total;
      t.mean <- mean;
      t.m2 <- m2;
      if other.min < t.min then t.min <- other.min;
      if other.max > t.max then t.max <- other.max
    end

let count t = t.n

let mean t = if t.n = 0 then 0.0 else t.mean

let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let min t = t.min

let max t = t.max

let std_error t =
  if t.n < 1 then 0.0 else stddev t /. sqrt (float_of_int t.n)

(* Two-sided 0.975 quantiles of Student's t. *)
let t_table =
  [|
    12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
    2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
    2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042;
  |]

let t_critical_95 df =
  if df < 1 then invalid_arg "Summary.t_critical_95: df must be >= 1";
  if df <= Array.length t_table then t_table.(df - 1)
  else if df <= 40 then 2.021
  else if df <= 60 then 2.000
  else if df <= 120 then 1.980
  else 1.960

let ci95 t =
  if t.n < 2 then 0.0 else t_critical_95 (t.n - 1) *. std_error t

let overlap a b =
  let lo_a = mean a -. ci95 a and hi_a = mean a +. ci95 a in
  let lo_b = mean b -. ci95 b and hi_b = mean b +. ci95 b in
  lo_a <= hi_b && lo_b <= hi_a
