(** Append-only JSONL journal with crash-safe semantics, the persistence
    layer behind campaign checkpoint/resume.

    Every {!append} writes one complete line and flushes it, so a killed
    process leaves at most one torn trailing fragment. {!resume} (and the
    read-only {!load}) accept exactly that shape: a valid prefix of JSON
    lines followed by an optional torn tail, which is dropped. A malformed
    line anywhere {e before} the tail means the file is not a journal (or
    was corrupted at rest) and is reported as an error instead of being
    silently skipped.

    Open journals are also flushed from an [at_exit] hook, so even an
    abnormal exit path that bypasses {!close} leaves a parseable prefix. *)

type t

(** [resume path] loads the journal's valid prefix (creating an empty
    journal when [path] does not exist), rewrites the file to exactly that
    prefix — truncating any torn tail so subsequent appends start on a
    fresh line — and returns the prefix with a handle open for appending. *)
val resume : string -> (Json.t list * t, string) result

(** [append t json] writes one record as a single line and flushes. *)
val append : t -> Json.t -> unit

(** Flush and close. Idempotent; appending after [close] raises. *)
val close : t -> unit

(** Read-only variant of {!resume}: the valid prefix of [path], with a
    torn trailing fragment dropped. [Ok []] when the file does not exist. *)
val load : string -> (Json.t list, string) result
