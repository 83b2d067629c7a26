(** Minimal JSON tree, encoder and parser — hand-rolled so the telemetry
    subsystem adds no external dependency.

    The encoder is deterministic: object members are emitted in the order
    given, floats are printed with a fixed format, and no whitespace is
    inserted, so identical values always produce identical bytes (the
    property the trace-determinism tests rely on). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Canonical float rendering: integral values below 1e15 in magnitude
    as ["%.1f"], everything else as ["%.12g"] (so [1e15] is ["1e+15"]);
    non-finite values encode as [null]. The bytes are Printf's, made in
    OCaml without it wherever that is exact: integral values from their
    digits, and magnitudes in \[1e-11, 1e12) by rounding [|x| * 10^k]
    (an exact power of ten) to 12 digits, ties to even. Other magnitudes
    go to the C formatter. Allocates only the result. *)
val float_str : float -> string

(** [add_int buf i] appends [string_of_int i] without building it. *)
val add_int : Buffer.t -> int -> unit

(** [member_to buf (key, value)] writes one object member, ["key":value],
    exactly as {!to_string} renders it inside an [Obj]. *)
val member_to : Buffer.t -> string * t -> unit

val to_string : t -> string

(** Parse one JSON value; trailing input (other than whitespace) is an
    error. Numbers without [.], [e] or [E] parse as [Int]. *)
val parse : string -> (t, string) result

(** [member key json] is the value bound to [key] when [json] is an
    object containing it. *)
val member : string -> t -> t option

(** [path "a.b.c" json] walks nested objects along dot-separated keys. *)
val path : string -> t -> t option
