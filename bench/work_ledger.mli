(** The work ledger: the exact work a fixed set of worlds and micro cases
    does, committed as [BENCH_work.json] and compared by
    [bench/main.exe work --check]. Counts must repeat exactly and
    allocated words must stay within {!band} of the committed figure, so
    the gate reads deterministic quantities and no wall-clock time. *)

type row = {
  name : string;  (** a world, or a micro case as [micro/GROUP/CASE] *)
  counts : (string * int) list;
      (** exact counts by name: [des.events] and every Obs counter for a
          world; empty for a micro case *)
  words : float;
      (** minor words: absolute for a world, per call for a micro case *)
}

type t = {
  ocaml : string;  (** the [Sys.ocaml_version] that recorded it *)
  rows : row list;
}

(** Relative band the words must stay within, either way: 0.01. *)
val band : float

(** The command that rewrites [BENCH_work.json], for messages and docs. *)
val regenerate : string

(** One row per line, so a regenerated ledger diffs row by row. *)
val to_string : t -> string

val of_string : string -> (t, string) result

(** [check ~committed ~fresh] is one message per row that moved, naming
    the row and what moved; [[]] when the fresh ledger matches. A
    toolchain mismatch is the only message when it occurs, and asks for
    a regeneration: words are not comparable across compilers. *)
val check : committed:t -> fresh:t -> string list
