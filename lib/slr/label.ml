(* The universal label value: one type inhabited by every dense label set
   the repo implements. Value-level operations (ordering, sentinels, width,
   printing) are intrinsic to the representation and dispatch on the
   constructor; the *generative* operations that distinguish the instances
   (split, next-element, overflow, the solicitation lie) live behind the
   {!S} module type. Bounded-mediant and Farey labels share the [Frac]
   representation — they differ only in how they mint new labels. *)

type t =
  | Frac of Fraction.t
  | Big of Bigfrac.t
  | Lex of Lexlabel.t

let big_of_frac (f : Fraction.t) =
  Bigfrac.of_ints ~num:f.Fraction.num ~den:f.Fraction.den

(* Rational representations promote exactly; lexicographic labels share
   sentinels with nothing, so mixing them is a programming error. *)
let compare a b =
  match (a, b) with
  | Frac x, Frac y -> Fraction.compare x y
  | Big x, Big y -> Bigfrac.compare x y
  | Lex x, Lex y -> Lexlabel.compare x y
  | Frac x, Big y -> Bigfrac.compare (big_of_frac x) y
  | Big x, Frac y -> Bigfrac.compare x (big_of_frac y)
  | (Frac _ | Big _), Lex _ | Lex _, (Frac _ | Big _) ->
      invalid_arg "Label.compare: incomparable label instances"

let equal a b = compare a b = 0

let is_zero = function
  | Frac f -> Fraction.is_zero f
  | Big b -> Bigfrac.is_zero b
  | Lex l -> Lexlabel.equal l Lexlabel.least

let is_one = function
  | Frac f -> Fraction.is_one f
  | Big b -> Bigfrac.is_one b
  | Lex l -> Lexlabel.equal l Lexlabel.top

let int_bits n =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go n 0

let width_bits = function
  | Frac f -> int_bits f.Fraction.num + int_bits f.Fraction.den
  | Big b -> Bigfrac.width_bits b
  | Lex l -> 8 * Lexlabel.width l

let pp ppf = function
  | Frac f -> Fraction.pp ppf f
  | Big b -> Bigfrac.pp ppf b
  | Lex l -> Lexlabel.pp ppf l

let encode = function
  | Frac f -> Printf.sprintf "%d/%d" f.Fraction.num f.Fraction.den
  | Big b ->
      Printf.sprintf "%s/%s"
        (Bignat.to_string b.Bigfrac.num)
        (Bignat.to_string b.Bigfrac.den)
  | Lex l -> (
      match l with
      | Lexlabel.Top -> "top"
      | Lexlabel.Key "" -> "least"
      | Lexlabel.Key s ->
          let buf = Buffer.create (2 + (2 * String.length s)) in
          Buffer.add_string buf "0x";
          String.iter
            (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c)))
            s;
          Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* The abstract label-set interface, documented in label.mli *)

module type S = sig
  val name : string
  val zero : t
  val one : t
  val compare : t -> t -> int
  val next : t -> t option
  val split : lo:t -> hi:t -> t option
  val would_overflow : t -> t -> bool
  val understate : k:int -> t -> t
  val over_reset_threshold : max_denom:int -> t -> bool
  val width_bits : t -> int
  val encode : t -> string
  val pp : Format.formatter -> t -> unit
end

(* The mediant/Farey lie on the fraction representation, hoisted verbatim
   from SRP's [lie_about] so the default instance stays bit-identical. *)
let understate_frac ~k f =
  if Fraction.is_one f || Fraction.is_zero f then f
  else begin
    let p = f.Fraction.num and q = f.Fraction.den in
    let num, den =
      if p > 1 then (p - 1, q - 1)
      else if (q * k) - 1 <= Fraction.bound then ((p * k) - 1, (q * k) - 1)
      else (p, q)
    in
    if num < 1 then f else Fraction.make ~num ~den
  end

let frac_op name op l =
  match l with
  | Frac f -> op f
  | Big _ | Lex _ -> invalid_arg (name ^ ": expects a bounded fraction label")

module Mediant = struct
  let name = "mediant"
  let zero = Frac Fraction.zero
  let one = Frac Fraction.one
  let compare = compare

  let next l =
    frac_op "Label.Mediant.next"
      (fun f -> Option.map (fun f' -> Frac f') (Fraction.next f))
      l

  let split ~lo ~hi =
    match (lo, hi) with
    | Frac a, Frac b -> Option.map (fun f -> Frac f) (Fraction.mediant a b)
    | _ -> invalid_arg "Label.Mediant.split: expects bounded fraction labels"

  let would_overflow a b =
    match (a, b) with
    | Frac x, Frac y -> Fraction.would_overflow x y
    | _ ->
        invalid_arg "Label.Mediant.would_overflow: expects bounded fractions"

  let understate ~k l =
    frac_op "Label.Mediant.understate" (fun f -> Frac (understate_frac ~k f)) l

  let over_reset_threshold ~max_denom l =
    frac_op "Label.Mediant.over_reset_threshold"
      (fun f -> f.Fraction.den > max_denom)
      l

  let width_bits = width_bits
  let encode = encode
  let pp = pp
end

module Farey = struct
  let name = "farey"
  let zero = Frac Fraction.zero
  let one = Frac Fraction.one
  let compare = compare

  (* minimal-denominator next element: the simplest fraction above [f] *)
  let next l =
    frac_op "Label.Farey.next"
      (fun f ->
        if Fraction.is_one f then None
        else
          Option.map
            (fun f' -> Frac f')
            (Farey.simplest_between ~lo:f ~hi:Fraction.one))
      l

  let split ~lo ~hi =
    match (lo, hi) with
    | Frac a, Frac b ->
        Option.map (fun f -> Frac f) (Farey.simplest_between ~lo:a ~hi:b)
    | _ -> invalid_arg "Label.Farey.split: expects bounded fraction labels"

  (* Eq. 11 asks whether the label space is exhausted between the two: an
     equal pair is not exhaustion (every instance degrades it to the
     infinite ordering in {!New_order} instead), so — like the mediant's
     arithmetic test — it does not raise the T bit. *)
  let would_overflow a b =
    match (a, b) with
    | Frac x, Frac y ->
        let c = Fraction.compare x y in
        c <> 0
        &&
        let lo, hi = if c < 0 then (x, y) else (y, x) in
        Farey.simplest_between ~lo ~hi = None
    | _ -> invalid_arg "Label.Farey.would_overflow: expects bounded fractions"

  let understate ~k l =
    frac_op "Label.Farey.understate" (fun f -> Frac (understate_frac ~k f)) l

  let over_reset_threshold ~max_denom l =
    frac_op "Label.Farey.over_reset_threshold"
      (fun f -> f.Fraction.den > max_denom)
      l

  let width_bits = width_bits
  let encode = encode
  let pp = pp
end

module Bigfrac_set = struct
  let name = "bigfrac"
  let zero = Big Bigfrac.zero
  let one = Big Bigfrac.one
  let compare = compare

  let as_big = function
    | Big b -> b
    | Frac f -> big_of_frac f
    | Lex _ -> invalid_arg "Label.Bigfrac: expects a rational label"

  let next l = Option.map (fun b -> Big b) (Bigfrac.next (as_big l))

  let split ~lo ~hi =
    let a = as_big lo and b = as_big hi in
    if Bigfrac.compare a b >= 0 then None else Some (Big (Bigfrac.mediant a b))

  (* truly dense: a label always exists strictly between distinct labels,
     so the T bit (label-space exhaustion, Eq. 11) never rises *)
  let would_overflow a b =
    ignore (as_big a);
    ignore (as_big b);
    false

  let understate ~k l =
    let b = as_big l in
    if Bigfrac.is_one b || Bigfrac.is_zero b then l
    else begin
      let p = b.Bigfrac.num and q = b.Bigfrac.den in
      let num, den =
        if Bignat.compare p Bignat.one > 0 then
          (Bignat.sub p Bignat.one, Bignat.sub q Bignat.one)
        else
          let kn = Bignat.of_int k in
          (Bignat.sub (Bignat.mul p kn) Bignat.one,
           Bignat.sub (Bignat.mul q kn) Bignat.one)
      in
      if Bignat.is_zero num then l else Big (Bigfrac.make ~num ~den)
    end

  let over_reset_threshold ~max_denom:_ _ = false
  let width_bits = width_bits
  let encode = encode
  let pp = pp
end

module Lex = struct
  let name = "lex"
  let zero = Lex Lexlabel.least
  let one = Lex Lexlabel.top
  let compare = compare

  let as_lex = function
    | Lex l -> l
    | Frac _ | Big _ -> invalid_arg "Label.Lex: expects a string label"

  let next l = Option.map (fun x -> Lex x) (Lexlabel.next (as_lex l))

  let split ~lo ~hi =
    let a = as_lex lo and b = as_lex hi in
    if Lexlabel.compare a b >= 0 then None
    else Option.map (fun x -> Lex x) (Lexlabel.between ~lo:a ~hi:b)

  (* a strictly-between string always exists: exhaustion never happens *)
  let would_overflow a b =
    ignore (as_lex a);
    ignore (as_lex b);
    false

  (* Lower the last byte when it stays positive, otherwise drop the
     trailing minimal digit; strip the trailing NULs that dropping can
     expose. Refuse to reach the least label (the destination's). *)
  let understate ~k:_ l =
    match as_lex l with
    | Lexlabel.Top -> l
    | Lexlabel.Key "" -> l
    | Lexlabel.Key s ->
        let n = String.length s in
        let c = Char.code s.[n - 1] in
        let lowered =
          if c >= 2 then String.sub s 0 (n - 1) ^ String.make 1 (Char.chr (c - 1))
          else begin
            let stop = ref (n - 1) in
            while !stop > 0 && s.[!stop - 1] = '\000' do
              decr stop
            done;
            String.sub s 0 !stop
          end
        in
        if lowered = "" then l else Lex (Lexlabel.of_string lowered)

  let over_reset_threshold ~max_denom:_ _ = false
  let width_bits = width_bits
  let encode = encode
  let pp = pp
end
