(* --prof event-kind spans for the MAC's scheduled callbacks *)
let span_backoff = Obs.span "event.mac.backoff"
let span_timeout = Obs.span "event.mac.timeout"
let span_tx = Obs.span "event.mac.tx"
let span_sifs = Obs.span "event.mac.sifs"

type pdu =
  | Mac_rts of { seq : int; to_ : int; nav : float }
  | Mac_cts of { seq : int; to_ : int; nav : float }
  | Mac_data of { seq : int; frame : Frame.t }
  | Mac_ack of { seq : int; to_ : int }

type callbacks = {
  on_receive : src:int -> Frame.t -> unit;
  on_unicast_success : frame:Frame.t -> dst:int -> unit;
  on_unicast_fail : frame:Frame.t -> dst:int -> unit;
}

type outgoing = { frame : Frame.t; seq : int; mutable retries : int }

type state =
  | Idle
  | Contending of Des.Engine.handle
  | Transmitting
  | Awaiting_cts of Des.Engine.handle
  | Awaiting_ack of Des.Engine.handle

type stats = {
  tx_data : int;
  tx_control : int;
  drop_queue_full : int;
  drop_retry : int;
}

type t = {
  engine : Des.Engine.t;
  channel : pdu Channel.t;
  id : int;
  rng : Des.Rng.t;
  trace : Trace.t;
  callbacks : callbacks;
  queue : outgoing Queue.t;
  mutable current : outgoing option;
  mutable state : state;
  mutable cw : int;
  mutable next_seq : int;
  (* virtual carrier sense from overheard RTS/CTS *)
  mutable nav_until : float;
  (* the backoff-expiry action never changes, so one closure serves every
     (re)arm — backoff events dominate a congested run's schedule rate *)
  mutable backoff_fire : unit -> unit;
  (* last delivered MAC seq per sender, for duplicate suppression *)
  last_seen : (int, int) Hashtbl.t;
  mutable tx_data : int;
  mutable tx_control : int;
  mutable drop_queue_full : int;
  mutable drop_retry : int;
}

let stats t =
  {
    tx_data = t.tx_data;
    tx_control = t.tx_control;
    drop_queue_full = t.drop_queue_full;
    drop_retry = t.drop_retry;
  }

let queue_length t =
  Queue.length t.queue + (match t.current with Some _ -> 1 | None -> 0)

let now t = Des.Engine.now t.engine

let data_duration frame = Radio.tx_duration ~size:frame.Frame.size

let uses_rts frame =
  match frame.Frame.dst with
  | Frame.Broadcast -> false
  | Frame.Unicast _ -> true

let needs_rts frame = uses_rts frame && frame.Frame.size > Radio.rts_threshold

let backoff_delay t =
  Radio.difs +. (float_of_int (Des.Rng.int t.rng (t.cw + 1)) *. Radio.slot)

let count_tx t frame =
  if Frame.is_data frame then t.tx_data <- t.tx_data + 1
  else t.tx_control <- t.tx_control + 1

let addr_id = function Frame.Broadcast -> -1 | Frame.Unicast i -> i

(* Telemetry at actual airtime, one event per (re)transmission/arrival. *)
let trace_tx t frame =
  if Trace.enabled t.trace then begin
    match frame.Frame.payload with
    | Frame.Data data ->
        Trace.pkt_tx t.trace ~node:t.id ~flow:data.Frame.flow
          ~seq:data.Frame.seq ~next:(addr_id frame.Frame.dst)
    | _ ->
        Trace.ctl_tx t.trace ~node:t.id ~kind:frame.Frame.kind
          ~dst:(addr_id frame.Frame.dst)
  end

let trace_rx t ~src frame =
  if Trace.enabled t.trace then begin
    match frame.Frame.payload with
    | Frame.Data data ->
        Trace.pkt_rx t.trace ~node:t.id ~flow:data.Frame.flow
          ~seq:data.Frame.seq ~from:src
    | _ -> Trace.ctl_rx t.trace ~node:t.id ~kind:frame.Frame.kind ~from:src
  end

let rec start_contention t =
  match t.state with
  | Idle -> begin
      match t.current with
      | Some _ -> arm_contention t
      | None ->
          if not (Queue.is_empty t.queue) then begin
            t.current <- Some (Queue.pop t.queue);
            t.cw <- Radio.cw_min;
            arm_contention t
          end
    end
  | Contending _ | Transmitting | Awaiting_cts _ | Awaiting_ack _ -> ()

and arm_contention t =
  Trace.mac_backoff t.trace ~node:t.id ~cw:t.cw;
  let handle =
    Des.Engine.schedule ~span:span_backoff t.engine ~delay:(backoff_delay t)
      t.backoff_fire
  in
  t.state <- Contending handle

and attempt t =
  match t.current with
  | None -> start_contention t
  | Some entry ->
      let channel_idle_at = Channel.busy_until t.channel t.id in
      let idle_at =
        if t.nav_until > channel_idle_at then t.nav_until else channel_idle_at
      in
      if idle_at > now t then begin
        (* medium busy (physically or by NAV): re-contend anchored at the
           idle boundary, like DCF's frozen backoff counters *)
        let delay = idle_at -. now t +. backoff_delay t in
        let handle =
          Des.Engine.schedule ~span:span_backoff t.engine ~delay t.backoff_fire
        in
        t.state <- Contending handle
      end
      else if needs_rts entry.frame then send_rts t entry
      else transmit_frame t entry

(* --- RTS/CTS exchange ------------------------------------------------ *)

and send_rts t entry =
  match entry.frame.Frame.dst with
  | Frame.Broadcast -> assert false
  | Frame.Unicast dst ->
      let nav =
        Radio.cts_duration +. data_duration entry.frame +. Radio.ack_duration
        +. (3.0 *. Radio.sifs)
      in
      Channel.transmit t.channel ~src:t.id ~duration:Radio.rts_duration
        (Mac_rts { seq = entry.seq; to_ = dst; nav });
      let timeout =
        Radio.rts_duration +. Radio.sifs +. Radio.cts_duration
        +. (2.0 *. Radio.slot)
      in
      let handle =
        Des.Engine.schedule ~span:span_timeout t.engine ~delay:timeout
          (fun () -> retry t entry dst)
      in
      t.state <- Awaiting_cts handle

and transmit_frame t entry =
  let frame = entry.frame in
  let duration = data_duration frame in
  count_tx t frame;
  trace_tx t frame;
  Channel.transmit t.channel ~src:t.id ~duration
    (Mac_data { seq = entry.seq; frame });
  match frame.Frame.dst with
  | Frame.Broadcast ->
      t.state <- Transmitting;
      ignore
        (Des.Engine.schedule ~span:span_tx t.engine ~delay:duration
           (fun () ->
             t.state <- Idle;
             t.current <- None;
             start_contention t))
  | Frame.Unicast dst ->
      let timeout =
        duration +. Radio.sifs +. Radio.ack_duration +. (2.0 *. Radio.slot)
      in
      let handle =
        Des.Engine.schedule ~span:span_timeout t.engine ~delay:timeout
          (fun () -> retry t entry dst)
      in
      t.state <- Awaiting_ack handle

and retry t entry dst =
  entry.retries <- entry.retries + 1;
  if entry.retries > Radio.retry_limit then begin
    t.drop_retry <- t.drop_retry + 1;
    Trace.mac_retry_drop t.trace ~node:t.id ~dst;
    t.state <- Idle;
    t.current <- None;
    t.cw <- Radio.cw_min;
    t.callbacks.on_unicast_fail ~frame:entry.frame ~dst;
    start_contention t
  end
  else begin
    t.cw <- Stdlib.min ((2 * t.cw) + 1) Radio.cw_max;
    t.state <- Idle;
    arm_contention t
  end

(* --- reception ------------------------------------------------------- *)

let send_ack t ~to_ ~seq =
  ignore
    (Des.Engine.schedule ~span:span_sifs t.engine ~delay:Radio.sifs (fun () ->
         Channel.transmit t.channel ~src:t.id ~duration:Radio.ack_duration
           (Mac_ack { seq; to_ })))

let send_cts t ~to_ ~seq ~nav =
  ignore
    (Des.Engine.schedule ~span:span_sifs t.engine ~delay:Radio.sifs (fun () ->
         Channel.transmit t.channel ~src:t.id ~duration:Radio.cts_duration
           (Mac_cts { seq; to_; nav })))

let set_nav t until = if until > t.nav_until then t.nav_until <- until

let deliver_data t ~src ~seq frame =
  match frame.Frame.dst with
  | Frame.Broadcast ->
      trace_rx t ~src frame;
      t.callbacks.on_receive ~src frame
  | Frame.Unicast dst when dst = t.id ->
      send_ack t ~to_:src ~seq;
      let duplicate =
        match Hashtbl.find_opt t.last_seen src with
        | Some s -> s = seq
        | None -> false
      in
      if not duplicate then begin
        Hashtbl.replace t.last_seen src seq;
        trace_rx t ~src frame;
        t.callbacks.on_receive ~src frame
      end
  | Frame.Unicast _ -> ()

let handle_pdu t ~src pdu =
  match pdu with
  | Mac_rts { seq; to_; nav } ->
      if to_ = t.id then
        (* grant the floor; our CTS silences our own neighbourhood *)
        send_cts t ~to_:src ~seq
          ~nav:(nav -. Radio.cts_duration -. Radio.sifs)
      else set_nav t (now t +. nav)
  | Mac_cts { seq; to_; nav } ->
      if to_ = t.id then begin
        match (t.state, t.current) with
        | Awaiting_cts handle, Some entry when entry.seq = seq ->
            Des.Engine.cancel handle;
            (* data follows one SIFS after the CTS *)
            ignore
              (Des.Engine.schedule ~span:span_sifs t.engine ~delay:Radio.sifs
                 (fun () -> transmit_frame t entry));
            t.state <- Transmitting
        | _ -> ()
      end
      else set_nav t (now t +. nav)
  | Mac_data { seq; frame } -> deliver_data t ~src ~seq frame
  | Mac_ack { seq; to_ } ->
      if to_ = t.id then begin
        match (t.state, t.current) with
        | Awaiting_ack handle, Some entry when entry.seq = seq ->
            Des.Engine.cancel handle;
            t.state <- Idle;
            t.current <- None;
            t.cw <- Radio.cw_min;
            (match entry.frame.Frame.dst with
            | Frame.Unicast dst ->
                t.callbacks.on_unicast_success ~frame:entry.frame ~dst
            | Frame.Broadcast -> assert false);
            start_contention t
        | _ -> ()
      end

let create ?(trace = Trace.null) engine channel ~id ~rng callbacks =
  let t =
    {
      engine;
      channel;
      id;
      rng;
      trace;
      callbacks;
      queue = Queue.create ();
      current = None;
      state = Idle;
      cw = Radio.cw_min;
      next_seq = 0;
      nav_until = 0.0;
      backoff_fire = ignore;
      last_seen = Hashtbl.create 16;
      tx_data = 0;
      tx_control = 0;
      drop_queue_full = 0;
      drop_retry = 0;
    }
  in
  t.backoff_fire <-
    (fun () ->
      t.state <- Idle;
      attempt t);
  Channel.set_receiver channel id (fun ~src pdu -> handle_pdu t ~src pdu);
  t

(* Model a node power-cycling: everything volatile — queued frames, the
   frame in flight, contention state, NAV, duplicate tracking — is gone.
   Queued frames are discarded without the unicast-fail callback: the dead
   node has no routing agent to notify. *)
let reset t =
  (match t.state with
  | Contending h | Awaiting_cts h | Awaiting_ack h -> Des.Engine.cancel h
  | Idle | Transmitting -> ());
  t.state <- Idle;
  Queue.clear t.queue;
  t.current <- None;
  t.cw <- Radio.cw_min;
  t.nav_until <- 0.0;
  Hashtbl.reset t.last_seen

let send t frame =
  if queue_length t >= Radio.queue_limit then begin
    t.drop_queue_full <- t.drop_queue_full + 1;
    if Trace.enabled t.trace then begin
      match frame.Frame.payload with
      | Frame.Data data ->
          Trace.pkt_drop t.trace ~node:t.id ~flow:data.Frame.flow
            ~seq:data.Frame.seq ~reason:"mac queue full"
      | _ -> Trace.mac_queue_drop t.trace ~node:t.id
    end
  end
  else begin
    let entry = { frame; seq = t.next_seq; retries = 0 } in
    t.next_seq <- t.next_seq + 1;
    (if Trace.enabled t.trace then
       match frame.Frame.payload with
       | Frame.Data data ->
           Trace.pkt_enqueue t.trace ~node:t.id ~flow:data.Frame.flow
             ~seq:data.Frame.seq
       | _ -> ());
    Queue.add entry t.queue;
    start_contention t
  end
