let span_timer = Obs.span "proto.discovery.timer"

let capacity = 64
let hold = 30.0
let node_traversal = 0.04

(* RFC 3561's RREQ_RATELIMIT, requests per second, and RREQ_RETRIES *)
let rate_limit = 10.0
let extra_retries = 1

let holdoff_base = 1.0
let holdoff_max = 10.0

type entry = { data : Wireless.Frame.data; size : int; deadline : float }

type dest = {
  parked : entry Queue.t;  (** arrival order, so deadlines never decrease *)
  mutable request : Des.Engine.handle option;  (** retry timer while active *)
  mutable failures : int;  (** consecutive give-ups *)
  mutable holdoff_until : float;
}

type t = {
  engine : Des.Engine.t;
  ttls : int array;
  capacity : int;
  hold : float;
  send : dst:int -> ttl:int -> attempt:int -> unit;
  give_up : dst:int -> unit;
  forward : Wireless.Frame.data -> size:int -> bool;
  drop : Wireless.Frame.data -> reason:string -> unit;
  (* created at a destination's first park and never removed: the expiry
     sweep visits destinations in this table's order *)
  dests : (int, dest) Hashtbl.t;
  mutable sweep : Des.Engine.handle option;
  (* token bucket for the per-node request rate limit *)
  mutable tokens : float;
  mutable last_refill : float;
}

let create engine ~ttls ~capacity ~hold ~send ~give_up ~forward ~drop =
  if ttls = [] then invalid_arg "Discovery.create: empty ttl schedule";
  {
    engine;
    ttls = Array.of_list ttls;
    capacity;
    hold;
    send;
    give_up;
    forward;
    drop;
    dests = Hashtbl.create 16;
    sweep = None;
    tokens = 5.0;
    last_refill = Des.Engine.now engine;
  }

let now t = Des.Engine.now t.engine

(* ------------------------------------------------------------------ *)
(* Parked packets                                                      *)

(* Deadlines are non-decreasing along a queue: expiry only ever needs to
   look at the head. *)
let drop_expired t q ~time =
  let rec loop () =
    match Queue.peek_opt q with
    | Some e when e.deadline <= time ->
        ignore (Queue.pop q);
        t.drop e.data ~reason:"pending-buffer expired";
        loop ()
    | Some _ | None -> ()
  in
  loop ()

let earliest_deadline t =
  Hashtbl.fold
    (fun _ d acc ->
      match Queue.peek_opt d.parked with
      | Some e -> (match acc with
          | Some x -> Some (Stdlib.min x e.deadline)
          | None -> Some e.deadline)
      | None -> acc)
    t.dests None

(* One timer, re-armed at the earliest live deadline. *)
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
                   Hashtbl.iter (fun _ d -> drop_expired t d.parked ~time) t.dests;
                   arm_sweep t)))

(* The live parked packets, removed from [d] before any is handed on. *)
let take t d =
  drop_expired t d.parked ~time:(now t);
  let taken = Queue.create () in
  Queue.transfer d.parked taken;
  taken

let forward_parked t d =
  Queue.iter
    (fun e ->
      if not (t.forward e.data ~size:e.size) then
        t.drop e.data ~reason:"no route after reply")
    (take t d)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let take_token t =
  let now = now t in
  t.tokens <- Stdlib.min 10.0 (t.tokens +. ((now -. t.last_refill) *. rate_limit));
  t.last_refill <- now;
  if t.tokens >= 1.0 then begin
    t.tokens <- t.tokens -. 1.0;
    true
  end
  else false

let give_up t ~dst d =
  d.request <- None;
  d.failures <- d.failures + 1;
  d.holdoff_until <-
    now t
    +. Stdlib.min holdoff_max
         (holdoff_base *. (2.0 ** float_of_int (d.failures - 1)));
  t.give_up ~dst;
  Queue.iter
    (fun e -> t.drop e.data ~reason:"route discovery failed")
    (take t d)

let rec attempt t ~dst d ~index =
  let ttl = t.ttls.(Stdlib.min index (Array.length t.ttls - 1)) in
  if take_token t then t.send ~dst ~ttl ~attempt:index;
  (* RFC 3561: each retry waits twice as long as the previous one *)
  let timeout =
    2.0 *. float_of_int ttl *. node_traversal *. (2.0 ** float_of_int index)
  in
  d.request <-
    Some
      (Des.Engine.schedule ~span:span_timer t.engine ~delay:timeout (fun () ->
           if index + 1 >= Array.length t.ttls + extra_retries then
             give_up t ~dst d
           else attempt t ~dst d ~index:(index + 1)))

(* ------------------------------------------------------------------ *)
(* Agent-facing operations                                             *)

let park t ~dst data ~size =
  let d =
    match Hashtbl.find_opt t.dests dst with
    | Some d -> d
    | None ->
        let d =
          {
            parked = Queue.create ();
            request = None;
            failures = 0;
            holdoff_until = neg_infinity;
          }
        in
        Hashtbl.replace t.dests dst d;
        d
  in
  let time = now t in
  drop_expired t d.parked ~time;
  if Queue.length d.parked >= t.capacity then begin
    let old = Queue.pop d.parked in
    t.drop old.data ~reason:"pending-buffer overflow"
  end;
  Queue.add { data; size; deadline = time +. t.hold } d.parked;
  arm_sweep t;
  if Option.is_none d.request && time >= d.holdoff_until then
    attempt t ~dst d ~index:0

let succeed t ~dst =
  match Hashtbl.find_opt t.dests dst with
  | None -> ()
  | Some d ->
      d.failures <- 0;
      d.holdoff_until <- neg_infinity;
      Option.iter Des.Engine.cancel d.request;
      d.request <- None;
      forward_parked t d

let flush t ~dst =
  match Hashtbl.find_opt t.dests dst with
  | None -> ()
  | Some d -> forward_parked t d

let active t ~dst =
  match Hashtbl.find_opt t.dests dst with
  | Some d -> Option.is_some d.request
  | None -> false

let parked t = Hashtbl.fold (fun _ d acc -> acc + Queue.length d.parked) t.dests 0
