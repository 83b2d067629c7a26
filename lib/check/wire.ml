module Frame = Wireless.Frame
module Intf = Protocols.Routing_intf

module IntSet = Set.Make (Int)

type t = {
  engine : Des.Engine.t;
  rng : Des.Rng.t;
  nodes : int;
  latency : float;
  jitter : float;
  adjacency : IntSet.t array;
  agents : Intf.agent option array;
  mutable filter : src:int -> dst:int -> frame:Frame.t -> bool;
  mutable delivered : (int * Frame.data) list;
  mutable dropped : (int * Frame.data * string) list;
}

let create ~engine ~rng ~nodes ?(latency = 0.01) ?(jitter = 0.0) () =
  {
    engine;
    rng;
    nodes;
    latency;
    jitter;
    adjacency = Array.make nodes IntSet.empty;
    agents = Array.make nodes None;
    filter = (fun ~src:_ ~dst:_ ~frame:_ -> true);
    delivered = [];
    dropped = [];
  }

let agent t i =
  match t.agents.(i) with
  | Some a -> a
  | None -> invalid_arg "Wire: agent not registered"

let set_agent t i a = t.agents.(i) <- Some a

let add_link t a b =
  if a = b then invalid_arg "Wire.add_link: self-link";
  t.adjacency.(a) <- IntSet.add b t.adjacency.(a);
  t.adjacency.(b) <- IntSet.add a t.adjacency.(b)

let remove_link t a b =
  t.adjacency.(a) <- IntSet.remove b t.adjacency.(a);
  t.adjacency.(b) <- IntSet.remove a t.adjacency.(b)

let linked t a b = IntSet.mem b t.adjacency.(a)

let set_filter t f = t.filter <- f

let delay t =
  t.latency +. (if t.jitter > 0.0 then Des.Rng.float t.rng t.jitter else 0.0)

(* Unicast: if the link is up and the filter passes, the receiver gets the
   frame after one hop delay and the sender hears the "ack" one delay
   later; otherwise the sender's MAC reports retry exhaustion after the
   equivalent of a retry burst. *)
let send t i frame =
  match frame.Frame.dst with
  | Frame.Unicast j ->
      let ok = linked t i j && t.filter ~src:i ~dst:j ~frame in
      if ok then begin
        let d = delay t in
        ignore
          (Des.Engine.schedule t.engine ~delay:d (fun () ->
               (agent t j).Intf.receive ~src:i frame));
        ignore
          (Des.Engine.schedule t.engine ~delay:(2.0 *. d) (fun () ->
               (agent t i).Intf.unicast_ok ~frame ~dst:j))
      end
      else
        ignore
          (Des.Engine.schedule t.engine ~delay:(4.0 *. t.latency) (fun () ->
               (agent t i).Intf.unicast_failed ~frame ~dst:j))
  | Frame.Broadcast ->
      IntSet.iter
        (fun j ->
          if t.filter ~src:i ~dst:j ~frame then begin
            let d = delay t in
            ignore
              (Des.Engine.schedule t.engine ~delay:d (fun () ->
                   (agent t j).Intf.receive ~src:i frame))
          end)
        t.adjacency.(i)

let ctx t i =
  {
    Intf.id = i;
    node_count = t.nodes;
    engine = t.engine;
    rng = Des.Rng.split t.rng (Printf.sprintf "wire-agent-%d" i);
    trace = Trace.null;
    mac_send = (fun frame -> send t i frame);
    deliver = (fun data -> t.delivered <- (i, data) :: t.delivered);
    drop_data =
      (fun data ~reason -> t.dropped <- (i, data, reason) :: t.dropped);
  }

let inject t ~from ~at frame = (agent t at).Intf.receive ~src:from frame

let delivered t = List.rev t.delivered

let dropped t = List.rev t.dropped
