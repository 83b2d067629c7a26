type id = Mediant | Farey | Bigfrac | Lex

let all = [ Mediant; Farey; Bigfrac; Lex ]

let default = Mediant

let name = function
  | Mediant -> "mediant"
  | Farey -> "farey"
  | Bigfrac -> "bigfrac"
  | Lex -> "lex"

let of_name = function
  | "mediant" -> Some Mediant
  | "farey" -> Some Farey
  | "bigfrac" -> Some Bigfrac
  | "lex" -> Some Lex
  | _ -> None

let instance : id -> (module Label.S) = function
  | Mediant -> (module Label.Mediant)
  | Farey -> (module Label.Farey)
  | Bigfrac -> (module Label.Bigfrac_set)
  | Lex -> (module Label.Lex)
