(* Classic continued-fraction descent: the simplest fraction strictly inside
   (a/b, c/d). A zero denominator on the high side encodes +infinity, which
   arises when the low endpoint is an exact integer. *)
let rec descend a b c d =
  let ia = a / b in
  let candidate = ia + 1 in
  (* candidate is strictly greater than a/b by construction of the floor;
     it is strictly below the high end iff candidate < c/d. *)
  if d = 0 || candidate * d < c then (candidate, 1)
  else
    let p, q = descend d (c - (ia * d)) b (a - (ia * b)) in
    ((ia * p) + q, p)

let simplest_between ~lo ~hi =
  if not Fraction.(lo < hi) then
    invalid_arg "Farey.simplest_between: requires lo < hi";
  let p, q =
    descend lo.Fraction.num lo.Fraction.den hi.Fraction.num hi.Fraction.den
  in
  if p > Fraction.bound || q > Fraction.bound then None
  else Some (Fraction.make ~num:p ~den:q)
