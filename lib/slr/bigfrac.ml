type t = { num : Bignat.t; den : Bignat.t }

let make ~num ~den =
  if Bignat.is_zero den then invalid_arg "Bigfrac.make: zero denominator";
  let c = Bignat.compare num den in
  if c > 0 then invalid_arg "Bigfrac.make: fraction must be <= 1/1";
  if c = 0 && not (Bignat.equal num Bignat.one) then
    invalid_arg "Bigfrac.make: only 1/1 may have num = den";
  { num; den }

let of_ints ~num ~den = make ~num:(Bignat.of_int num) ~den:(Bignat.of_int den)

let zero = { num = Bignat.zero; den = Bignat.one }

let one = { num = Bignat.one; den = Bignat.one }

let is_zero t = Bignat.is_zero t.num

let is_one t = Bignat.equal t.num t.den

let compare a b =
  Bignat.compare (Bignat.mul a.num b.den) (Bignat.mul b.num a.den)

let equal a b = compare a b = 0

let ( < ) a b = compare a b < 0

let mediant a b =
  { num = Bignat.add a.num b.num; den = Bignat.add a.den b.den }

let next a = if is_one a then None else Some (mediant a one)

let width_bits t = Bignat.bits t.num + Bignat.bits t.den

let pp ppf t = Format.fprintf ppf "%a/%a" Bignat.pp t.num Bignat.pp t.den
