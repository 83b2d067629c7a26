type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* The C primitive that Printf's %g and %f conversions end in. It prints
   the floats whose decimal digits [float_str] cannot scale out exactly. *)
external format_float : string -> float -> string = "caml_format_float"

(* 10^k for k = 0 .. 22, each one exact in a double *)
let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

(* 10^k for k = 0 .. 15 *)
let ipow10 = Array.init 16 (fun k -> int_of_float pow10.(k))

let rec digit_count n = if n < 10 then 1 else 1 + digit_count (n / 10)

(* The [count] lowest decimal digits of [n >= 0], zero-padded, the last
   at [b.[last]]. *)
let rec put_digits b last n count =
  if count > 0 then begin
    Bytes.set b last (Char.unsafe_chr (48 + (n mod 10)));
    put_digits b (last - 1) (n / 10) (count - 1)
  end

(* [-ip.fp] or [ip.fp]: [ni] digits of [ip], then a point and [nf] digits
   of [fp] when [nf > 0], then [e±XX] when [exp]. *)
let number_str ~neg ~ip ~ni ~fp ~nf ~exp ~e =
  let s = Bool.to_int neg in
  let len =
    s + ni + (if nf > 0 then nf + 1 else 0) + if exp then 4 else 0
  in
  let b = Bytes.create len in
  if neg then Bytes.set b 0 '-';
  put_digits b (s + ni - 1) ip ni;
  if nf > 0 then begin
    Bytes.set b (s + ni) '.';
    put_digits b (s + ni + nf) fp nf
  end;
  if exp then begin
    Bytes.set b (len - 4) 'e';
    Bytes.set b (len - 3) (if e < 0 then '-' else '+');
    put_digits b (len - 1) (abs e) 2
  end;
  Bytes.unsafe_to_string b

(* %.12g of [m * 10^(e - 11)], for 10^11 <= m < 10^12 and -11 <= e <= 12.
   The first digit printed stands for 10^p: p = e in fixed notation
   (-4 <= e < 12), p = 0 in exponential, which appends e±XX. Trailing
   zeros are dropped, and the point with them. *)
let g12_str ~neg m e =
  let exp = e < -4 || e >= 12 in
  let p = if exp then 0 else e in
  (* [k] significant digits are left once the zeros go *)
  let digits = ref m and k = ref 12 in
  while !digits mod 10 = 0 do
    digits := !digits / 10;
    decr k
  done;
  let nf = Int.max 0 (!k - 1 - p) in
  number_str ~neg
    ~ip:(if p >= 0 then m / ipow10.(11 - p) else 0)
    ~ni:(Int.max 1 (p + 1))
    ~fp:(!digits mod ipow10.(nf))
    ~nf ~exp ~e

let float_str f =
  let a = Float.abs f in
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && a < 1e15 then
    let n = Float.to_int a in
    number_str ~neg:(Float.sign_bit f) ~ip:n ~ni:(digit_count n) ~fp:0 ~nf:1
      ~exp:false ~e:0
  (* 10^-11 is not a double; the one nearest it lies below it *)
  else if a > 1e-11 && a < 1e12 then begin
    (* e = floor (log10 a), which log10 may misjudge next to a power of
       ten, is corrected until a * 10^(11 - e) rounds into [10^11, 10^12);
       10^(11 - e) is exact. A product just below a bound that rounds
       onto it has the same 12-digit rounding as the bound itself. *)
    let e = ref (int_of_float (Float.floor (log10 a))) in
    e := Int.max (-11) (Int.min 11 !e);
    while a *. pow10.(11 - !e) >= 1e12 do incr e done;
    while a *. pow10.(11 - !e) < 1e11 do decr e done;
    let p = pow10.(11 - !e) in
    (* a * p = hi + lo exactly, with |lo| at most half an ulp of hi, and
       hi < 2^40, so the ulp is at most 2^-13 and divides 0.5: lo only
       breaks the tie of a fraction of exactly 0.5 *)
    let hi = a *. p in
    let lo = Float.fma a p (-.hi) in
    let whole = Float.floor hi in
    let frac = hi -. whole in
    let n = Float.to_int whole in
    let up =
      frac > 0.5 || (frac = 0.5 && (lo > 0.0 || (lo = 0.0 && n land 1 = 1)))
    in
    let m = n + Bool.to_int up and neg = Float.sign_bit f in
    if m = 1_000_000_000_000 then g12_str ~neg 100_000_000_000 (!e + 1)
    else g12_str ~neg m !e
  end
  else format_float "%.12g" f

(* the digits of -n for n <= 0, so that min_int, whose negation is no
   int, takes the same path as every other int *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf i
  end
  else add_neg_digits buf (-i)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let rec clean s i =
  i = String.length s || ((not (needs_escape s.[i])) && clean s (i + 1))

let escape_to buf s =
  Buffer.add_char buf '"';
  if clean s 0 then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> Buffer.add_string buf (float_str f)
  | String s -> escape_to buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i member ->
          if i > 0 then Buffer.add_char buf ',';
          member_to buf member)
        members;
      Buffer.add_char buf '}'

and member_to buf (key, value) =
  escape_to buf key;
  Buffer.add_char buf ':';
  to_buffer buf value

let to_string json =
  let buf = Buffer.create 256 in
  to_buffer buf json;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over the raw string.                      *)

exception Fail of string

let parse input =
  let n = String.length input in
  let pos = ref 0 in
  let fail msg = raise (Fail (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub input !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* UTF-8 encode a \uXXXX escape (surrogate pairs are passed through as
     two separately-encoded code units; good enough for a validator) *)
  let add_code_point buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = input.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape";
         let e = input.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
             if !pos + 4 > n then fail "truncated \\u escape";
             let hex = String.sub input !pos 4 in
             pos := !pos + 4;
             let cp =
               try int_of_string ("0x" ^ hex)
               with _ -> fail "bad \\u escape"
             in
             add_code_point buf cp
         | _ -> fail "unknown escape");
        loop ()
      end
      else begin
        Buffer.add_char buf c;
        loop ()
      end
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char input.[!pos] do
      advance ()
    done;
    let s = String.sub input start (!pos - start) in
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s
    in
    if is_float then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
          (* out-of-range integer literal: fall back to float *)
          match float_of_string_opt s with
          | Some f -> Float f
          | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let parse_member () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            (key, value)
          in
          let members = ref [ parse_member () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            members := parse_member () :: !members;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !members)
        end
    | Some _ -> parse_number ()
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing input at offset %d" !pos)
    else Ok v
  with Fail msg -> Error msg

let member key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let path dotted json =
  let keys = String.split_on_char '.' dotted in
  List.fold_left
    (fun acc key -> match acc with None -> None | Some j -> member key j)
    (Some json) keys
