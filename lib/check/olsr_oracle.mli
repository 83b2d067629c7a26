(** Reference OLSR route computation and MPR selection: the
    [Hashtbl]/[Queue] implementation {!Protocols.Olsr} used before its
    flat-array rewrite, driven by the same HELLO/TC stream as a real agent.
    It models only the state routes and MPRs are computed from and sends
    nothing; the caller runs {!hello_links} whenever the agent under test
    emits a HELLO, which is when the agent selects its MPRs. *)

type t

(** An oracle for the agent created on the same [ctx] (its [id], [engine]
    clock and [node_count] are read; nothing is scheduled). *)
val create : Protocols.Routing_intf.ctx -> t

val handle_hello : t -> Protocols.Olsr.hello -> unit

val handle_tc : t -> Protocols.Olsr.tc -> unit

(** Reselect the MPRs and return the link list the agent's HELLO must
    carry now. *)
val hello_links : t -> (int * bool * bool) list

val mprs : t -> int list

(** Recomputes first when a control message has dirtied the table. *)
val next_hop : t -> dst:int -> int option

(** Size of the last computed table (the [route_entries] gauge). *)
val route_entries : t -> int
