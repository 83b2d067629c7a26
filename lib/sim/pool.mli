(** Domain-based worker pool for embarrassingly parallel simulation work.

    [map] preserves input order exactly: result [i] is [f items.(i)]
    whatever the number of workers, so callers that fold results in array
    order see the same bytes at [-j 1] and [-j N]. Each [f items.(i)] must
    be self-contained (own engine, own RNG substream — which every
    [Runner.run] is); the pool adds no synchronisation around [f] beyond
    the work-stealing counter. *)

(** A worker's exception, wrapped with the identity of the failing cell.
    The original exception rides in [exn] and the re-raise preserves the
    original raise-site backtrace, so traces point into the cell's code,
    not at the pool. A printer is registered with {!Printexc}. *)
exception Cell_error of { cell : string; exn : exn }

(** [map ~jobs f items] applies [f] to every element, using up to [jobs]
    domains (clamped to [1 .. Array.length items]; [jobs <= 1] runs inline
    with no domains spawned). The first exception raised by any [f] is
    re-raised in the caller — after all workers have stopped — as
    {!Cell_error}, with the original backtrace attached. [name] renders
    the failing item's identity from its index (default ["#i"]). *)
val map : ?name:(int -> string) -> jobs:int -> ('a -> 'b) -> 'a array -> 'b array
