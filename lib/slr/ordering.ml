type t = { sn : int; label : Label.t }

let unassigned = { sn = 0; label = Label.Frac Fraction.one }

let unassigned_of (module L : Label.S) = { sn = 0; label = L.one }

let v ~sn ~label =
  if sn < 0 then invalid_arg "Ordering.v: negative sequence number";
  { sn; label }

let make ~sn ~frac =
  if sn < 0 then invalid_arg "Ordering.make: negative sequence number";
  { sn; label = Label.Frac frac }

let destination ~sn =
  if sn <= 0 then invalid_arg "Ordering.destination: sn must be positive";
  { sn; label = Label.Frac Fraction.zero }

let destination_of (module L : Label.S) ~sn =
  if sn <= 0 then invalid_arg "Ordering.destination_of: sn must be positive";
  { sn; label = L.zero }

let frac t =
  match t.label with
  | Label.Frac f -> f
  | Label.Big _ | Label.Lex _ ->
      invalid_arg "Ordering.frac: not a bounded-fraction label"

let is_finite t = not (Label.is_one t.label)

let is_unassigned t = t.sn = 0 && Label.is_one t.label

let precedes a b =
  a.sn < b.sn || (a.sn = b.sn && Label.compare b.label a.label < 0)

let min a b = if precedes a b then b else a

let equal a b = a.sn = b.sn && Label.equal a.label b.label

let add t f =
  match t.label with
  | Label.Frac tf -> (
      match Fraction.mediant tf f with
      | None -> None
      | Some m -> Some { t with label = Label.Frac m })
  | Label.Big _ | Label.Lex _ ->
      invalid_arg "Ordering.add: not a bounded-fraction label"

let split_would_overflow a b = Fraction.would_overflow (frac a) (frac b)

let pp ppf t = Format.fprintf ppf "(%d, %a)" t.sn Label.pp t.label
