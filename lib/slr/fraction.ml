type t = { num : int; den : int }

let bound = (1 lsl 32) - 1

let make ~num ~den =
  if den < 1 then invalid_arg "Fraction.make: denominator must be >= 1";
  if num < 0 then invalid_arg "Fraction.make: numerator must be >= 0";
  if num > bound || den > bound then
    invalid_arg "Fraction.make: component exceeds 32-bit bound";
  if num > den then invalid_arg "Fraction.make: fraction must be <= 1/1";
  if num = den && num <> 1 && num <> 0 then
    invalid_arg "Fraction.make: only 1/1 may have num = den";
  { num; den }

let zero = { num = 0; den = 1 }

let one = { num = 1; den = 1 }

let is_zero t = t.num = 0

let is_one t = t.num = t.den

(* Cross products of 32-bit components need up to 64 unsigned bits; native
   ints have 63, so multiply in Int64 (wrapping is exact as unsigned) and
   compare unsigned. *)
let compare a b =
  let left = Int64.mul (Int64.of_int a.num) (Int64.of_int b.den) in
  let right = Int64.mul (Int64.of_int b.num) (Int64.of_int a.den) in
  Int64.unsigned_compare left right

let equal a b = compare a b = 0

let ( < ) a b = compare a b < 0

let ( <= ) a b = compare a b <= 0

let mediant a b =
  let num = a.num + b.num and den = a.den + b.den in
  if num > bound || den > bound then None else Some { num; den }

let next a = if is_one a then None else mediant a one

let would_overflow a b = a.num + b.num > bound || a.den + b.den > bound

let pp ppf t = Format.fprintf ppf "%d/%d" t.num t.den

(* Worst case: always split the mediant against the endpoint with the larger
   denominator, so denominators follow the Fibonacci sequence (the paper's
   derivation of the 45-split bound). *)
let max_splits () =
  let rec loop a b splits =
    match mediant a b with
    | None -> splits
    | Some m ->
        let keep = if Stdlib.( >= ) a.den b.den then a else b in
        loop keep m (splits + 1)
  in
  loop zero one 0
