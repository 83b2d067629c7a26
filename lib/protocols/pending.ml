let span_timer = Obs.span "proto.pending.timer"

type entry = { data : Wireless.Frame.data; size : int; deadline : float }

type t = {
  capacity : int;
  ttl : float;
  engine : Des.Engine.t;
  drop : Wireless.Frame.data -> size:int -> reason:string -> unit;
  queues : (int, entry Queue.t) Hashtbl.t;
  mutable sweep : Des.Engine.handle option;
}

let expiry_reason = "pending-buffer expired"

let create ~ttl ~engine ~capacity ~drop =
  { capacity; ttl; engine; drop; queues = Hashtbl.create 16; sweep = None }

let now t = Des.Engine.now t.engine

let queue_for t dst =
  match Hashtbl.find_opt t.queues dst with
  | Some q -> q
  | None ->
      let q = Queue.create ()
      in
      Hashtbl.replace t.queues dst q;
      q

(* Entries are queued in arrival order, so each queue's deadlines are
   non-decreasing: expiry only ever needs to look at the head. *)
let drop_expired t q ~time =
  let rec loop () =
    match Queue.peek_opt q with
    | Some e when e.deadline <= time ->
        ignore (Queue.pop q);
        t.drop e.data ~size:e.size ~reason:expiry_reason;
        loop ()
    | Some _ | None -> ()
  in
  loop ()

let earliest_deadline t =
  Hashtbl.fold
    (fun _ q acc ->
      match Queue.peek_opt q with
      | Some e -> (match acc with
          | Some d -> Some (Stdlib.min d e.deadline)
          | None -> Some e.deadline)
      | None -> acc)
    t.queues None

(* Timer-driven expiry so a destination nobody ever asks about again still
   drains: one timer, re-armed at the earliest live deadline. *)
let rec arm_sweep t =
  match t.sweep with
  | Some h when not (Des.Engine.cancelled h) -> ()
  | Some _ | None -> (
      match earliest_deadline t with
      | None -> t.sweep <- None
      | Some deadline ->
          let time = Stdlib.max deadline (now t) in
          t.sweep <-
            Some
              (Des.Engine.schedule_at ~span:span_timer t.engine ~time (fun () ->
                   t.sweep <- None;
                   let time = now t in
                   Hashtbl.iter (fun _ q -> drop_expired t q ~time) t.queues;
                   arm_sweep t)))

let push t ~dst data ~size =
  let q = queue_for t dst in
  drop_expired t q ~time:(now t);
  if Queue.length q >= t.capacity then begin
    let old = Queue.pop q in
    t.drop old.data ~size:old.size ~reason:"pending-buffer overflow"
  end;
  Queue.add { data; size; deadline = now t +. t.ttl } q;
  arm_sweep t

let take_all t ~dst =
  match Hashtbl.find_opt t.queues dst with
  | None -> []
  | Some q ->
      drop_expired t q ~time:(now t);
      let items =
        List.of_seq (Seq.map (fun e -> (e.data, e.size)) (Queue.to_seq q))
      in
      Queue.clear q;
      items

let drop_all t ~dst ~reason =
  List.iter (fun (data, size) -> t.drop data ~size ~reason) (take_all t ~dst)

let count t ~dst =
  match Hashtbl.find_opt t.queues dst with
  | None -> 0
  | Some q ->
      drop_expired t q ~time:(now t);
      Queue.length q

let total t = Hashtbl.fold (fun _ q acc -> acc + Queue.length q) t.queues 0
