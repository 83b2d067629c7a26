(** Registry of the four dense label-set instances, keyed by the names the
    CLI accepts ([--labels mediant|farey|bigfrac|lex]).

    {!id} is the plain enumeration carried in configuration records and
    serialised into campaign JSON; {!instance} resolves it to the
    first-class module the protocol stack programs against. *)

type id = Mediant | Farey | Bigfrac | Lex

val all : id list

(** {!Mediant} — the paper's SRP label set. *)
val default : id

val name : id -> string

val of_name : string -> id option

val instance : id -> (module Label.S)
