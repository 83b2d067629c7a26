(** Per-destination buffer for data packets awaiting route discovery, with a
    bounded capacity, per-entry expiry, and a drop callback, shared by all
    on-demand agents. *)

type t

(** [create ~ttl ~engine ~capacity ~drop] builds a buffer. Every entry
    expires [ttl] seconds after it was pushed and is drained through the
    drop callback by an [engine] timer — a destination whose discovery
    silently stalls (e.g. because the requester is in holdoff) can no
    longer pin packets forever. *)
val create :
  ttl:float ->
  engine:Des.Engine.t ->
  capacity:int ->
  drop:(Wireless.Frame.data -> size:int -> reason:string -> unit) ->
  t

(** [push t ~dst data ~size] buffers a packet; the oldest buffered packet
    for [dst] is dropped (via the callback) when the buffer is full. *)
val push : t -> dst:int -> Wireless.Frame.data -> size:int -> unit

(** [take_all t ~dst] removes and returns the live buffered packets in
    arrival order (expired ones are dropped first). *)
val take_all : t -> dst:int -> (Wireless.Frame.data * int) list

(** [drop_all t ~dst ~reason] flushes the buffer through the drop callback
    (route discovery failed). *)
val drop_all : t -> dst:int -> reason:string -> unit

val count : t -> dst:int -> int

(** Total buffered packets across all destinations. Read-only (no expiry
    sweep), so it is safe to call from gauge sampling. *)
val total : t -> int
