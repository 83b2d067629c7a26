type t = {
  mutable sent : int;
  mutable delivered : int;
  lat : Stats.Summary.t;
  drop_reasons : (string, int) Hashtbl.t;
  (* guard against double delivery of the same packet *)
  seen : (int, unit) Hashtbl.t;
  (* per-flow outage tracking: time of the first drop since the flow last
     delivered; closed (into [recovery]) by the next delivery on that flow *)
  outages : (int, float) Hashtbl.t;
  recovery : Stats.Summary.t;
}

let create () =
  {
    sent = 0;
    delivered = 0;
    lat = Stats.Summary.create ();
    drop_reasons = Hashtbl.create 8;
    seen = Hashtbl.create 1024;
    outages = Hashtbl.create 8;
    recovery = Stats.Summary.create ();
  }

let on_sent t _data = t.sent <- t.sent + 1

let on_delivered t ~now data =
  if not (Hashtbl.mem t.seen data.Wireless.Frame.seq) then begin
    Hashtbl.replace t.seen data.Wireless.Frame.seq ();
    t.delivered <- t.delivered + 1;
    Stats.Summary.add t.lat (now -. data.Wireless.Frame.sent_at);
    match Hashtbl.find_opt t.outages data.Wireless.Frame.flow with
    | Some since ->
        (* the flow is delivering again: the outage is over *)
        Stats.Summary.add t.recovery (now -. since);
        Hashtbl.remove t.outages data.Wireless.Frame.flow
    | None -> ()
  end

let on_dropped t ~now data ~reason =
  let count = Option.value ~default:0 (Hashtbl.find_opt t.drop_reasons reason) in
  Hashtbl.replace t.drop_reasons reason (count + 1);
  if not (Hashtbl.mem t.outages data.Wireless.Frame.flow) then
    Hashtbl.replace t.outages data.Wireless.Frame.flow now

type result = {
  sent : int;
  delivered : int;
  delivery_ratio : float;
  control_tx : int;
  network_load : float;
  latency : float;
  mac_drops_per_node : float;
  collisions : int;
  data_tx : int;
  drop_queue_full : int;
  drop_retry : int;
  avg_seqno : float;
  max_seqno : int;
  seqno_resets : int;
  max_denominator : int;
  label_width_bits : int;
  label_resets : int;
  drop_reasons : (string * int) list;
  fault_events : int;
  fault_frames_blocked : int;
  recoveries : int;
  recovery_mean : float;
  recovery_max : float;
  engine_events : int;
}

let finalize (t : t) ~control_tx ~data_tx ~drop_queue_full ~drop_retry
    ~collisions ~nodes ~gauges ~fault_events ~fault_frames_blocked
    ~engine_events =
  let total = Protocols.Routing_intf.total gauges in
  let max_seqno =
    List.fold_left
      (fun m g -> Stdlib.max m g.Protocols.Routing_intf.own_seqno)
      0 gauges
  in
  let avg_seqno =
    if nodes = 0 then 0.0
    else
      float_of_int total.Protocols.Routing_intf.own_seqno
      /. float_of_int nodes
  in
  {
    sent = t.sent;
    delivered = t.delivered;
    delivery_ratio =
      (if t.sent = 0 then 0.0
       else float_of_int t.delivered /. float_of_int t.sent);
    control_tx;
    network_load =
      (if t.delivered = 0 then float_of_int control_tx
       else float_of_int control_tx /. float_of_int t.delivered);
    latency = Stats.Summary.mean t.lat;
    mac_drops_per_node =
      float_of_int (drop_queue_full + drop_retry) /. float_of_int nodes;
    collisions;
    data_tx;
    drop_queue_full;
    drop_retry;
    avg_seqno;
    max_seqno;
    seqno_resets = total.seqno_resets;
    max_denominator = total.max_denominator;
    label_width_bits = total.label_width_bits;
    label_resets = total.label_resets;
    drop_reasons =
      List.sort
        (fun (_, a) (_, b) -> compare b a)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.drop_reasons []);
    fault_events;
    fault_frames_blocked;
    recoveries = Stats.Summary.count t.recovery;
    recovery_mean = Stats.Summary.mean t.recovery;
    recovery_max =
      (if Stats.Summary.count t.recovery = 0 then 0.0
       else Stats.Summary.max t.recovery);
    engine_events;
  }

let result_json (r : result) =
  let module J = Trace.Json in
  J.Obj
    [
      ("sent", J.Int r.sent);
      ("delivered", J.Int r.delivered);
      ("delivery_ratio", J.Float r.delivery_ratio);
      ("control_tx", J.Int r.control_tx);
      ("network_load", J.Float r.network_load);
      ("latency", J.Float r.latency);
      ("mac_drops_per_node", J.Float r.mac_drops_per_node);
      ("collisions", J.Int r.collisions);
      ("data_tx", J.Int r.data_tx);
      ("drop_queue_full", J.Int r.drop_queue_full);
      ("drop_retry", J.Int r.drop_retry);
      ("avg_seqno", J.Float r.avg_seqno);
      ("max_seqno", J.Int r.max_seqno);
      ("seqno_resets", J.Int r.seqno_resets);
      ("max_denominator", J.Int r.max_denominator);
      ("label_width_bits", J.Int r.label_width_bits);
      ("label_resets", J.Int r.label_resets);
      ( "drop_reasons",
        J.Obj (List.map (fun (k, v) -> (k, J.Int v)) r.drop_reasons) );
      ("fault_events", J.Int r.fault_events);
      ("fault_frames_blocked", J.Int r.fault_frames_blocked);
      ("recoveries", J.Int r.recoveries);
      ("recovery_mean", J.Float r.recovery_mean);
      ("recovery_max", J.Float r.recovery_max);
      ("engine_events", J.Int r.engine_events);
    ]

let pp_result ppf r =
  Format.fprintf ppf
    "sent %d, delivered %d (%.3f), control %d (load %.3f), latency %.3fs, \
     mac-drops/node %.1f, collisions %d, avg-seqno %.2f"
    r.sent r.delivered r.delivery_ratio r.control_tx r.network_load r.latency
    r.mac_drops_per_node r.collisions r.avg_seqno
