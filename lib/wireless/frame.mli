(** Network-layer packets exchanged between routing agents.

    The payload is an extensible variant: each routing protocol adds its own
    control-message constructors, so the wireless substrate never depends on
    any protocol. Application data ([Data]) is the one payload every layer
    understands; anything else is classified as routing control for the
    network-load metric. *)

type payload = ..

(** One end-to-end CBR packet. [sent_at] stamps origination for the latency
    metric; [hops] is incremented by the routing layer on each forward and
    doubles as a TTL guard against transient forwarding loops. *)
type data = {
  origin : int;
  final_dst : int;
  flow : int;
  seq : int;
  sent_at : float;
  mutable hops : int;
}

type payload += Data of data

type addr = Unicast of int | Broadcast

type cls = Data_frame | Control_frame

type t = {
  src : int;
  dst : addr;
  size : int;
  payload : payload;
  cls : cls;
  kind : string;
      (** short human label for telemetry ("data", "rreq", "hello", …);
          carries no protocol semantics *)
}

(** Classification defaults to [Data_frame] for [Data] payloads and
    [Control_frame] otherwise; [kind] defaults to ["data"] or ["ctl"]
    accordingly. *)
val make : src:int -> dst:addr -> size:int -> payload:payload -> t

(** Tag the frame with its message name ("rreq", "hello", …) so traces can
    tell control messages apart without decoding payloads. *)
val with_kind : t -> string -> t

(** Override the classification: protocols that wrap application data in
    their own payloads (e.g. DSR's source-routed header) reclassify the
    frame as [Data_frame] so the network-load metric stays honest. *)
val with_cls : t -> cls -> t

(** [true] exactly for frames classified as data. *)
val is_data : t -> bool
