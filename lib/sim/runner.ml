module Frame = Wireless.Frame

let build_agent (config : Config.t) ctx =
  match config.protocol with
  | Config.Srp -> Protocols.Srp.create ~config:config.srp ctx
  | Config.Ldr -> Protocols.Ldr.create ~config:config.ldr ctx
  | Config.Aodv -> Protocols.Aodv.create ~config:config.aodv ctx
  | Config.Dsr -> Protocols.Dsr.create ~config:config.dsr ctx
  | Config.Olsr -> Protocols.Olsr.create ~config:config.olsr ctx

(* stand-in agent for a crashed node: every handler is inert, data handed
   over by the application is dropped on the floor *)
let dead_agent drop =
  {
    Protocols.Routing_intf.originate =
      (fun data ~size:_ -> drop data ~reason:"node down");
    receive = (fun ~src:_ _ -> ());
    unicast_failed = (fun ~frame:_ ~dst:_ -> ());
    unicast_ok = (fun ~frame:_ ~dst:_ -> ());
    gauges = (fun () -> Protocols.Routing_intf.no_gauges);
  }

let run_custom ?(on_faults = fun (_ : Faults.Injector.t) -> ())
    ?(trace = Trace.null) ?(sample_every = 0.0) ?deadline (config : Config.t)
    ~build ~on_start =
  let engine = Des.Engine.create () in
  Trace.set_clock trace (fun () -> Des.Engine.now engine);
  let root = Des.Rng.create (Int64.of_int config.seed) in
  (* protocol-independent substreams: identical across protocols *)
  let mobility_rng = Des.Rng.split root "mobility" in
  let traffic_rng = Des.Rng.split root "traffic" in
  let scripts =
    Wireless.Mobility.generate config.mobility ~terrain:config.terrain
      ~rng:mobility_rng ~nodes:config.nodes ~pause:config.pause
      ~speed_min:config.speed_min ~speed_max:config.speed_max
      ~duration:config.duration
  in
  let channel =
    (* mobility legs never exceed speed_max, so the grid's candidate sets
       stay supersets of the exact in-range sets and the grid-backed scan
       is observationally identical to the naive one; --channel naive is
       the escape hatch back to the O(n^2) oracle sweep *)
    let grid =
      match config.channel with
      | Config.Grid ->
          Some { Wireless.Channel.max_speed = config.speed_max; epoch = 0.25 }
      | Config.Naive -> None
    in
    Wireless.Channel.create ~trace ?grid engine ~scripts
      ~range:Wireless.Radio.range ~cs_range:Wireless.Radio.cs_range
  in
  let metrics = Metrics.create () in
  let agents : Protocols.Routing_intf.agent option array =
    Array.make config.nodes None
  in
  let agent i =
    match agents.(i) with
    | Some a -> a
    | None -> invalid_arg "Runner: agent not wired"
  in
  (* --prof: time spent in this protocol's frame handler (control
     processing and data forwarding both enter through [receive]) *)
  let span_receive =
    Obs.span
      ("proto."
      ^ String.lowercase_ascii (Config.protocol_name config.protocol)
      ^ ".receive")
  in
  let macs =
    Array.init config.nodes (fun i ->
        Wireless.Mac80211.create ~trace engine channel ~id:i
          ~rng:(Des.Rng.split root (Printf.sprintf "mac-%d" i))
          {
            Wireless.Mac80211.on_receive =
              (fun ~src frame ->
                if Obs.enabled () then begin
                  Obs.start span_receive;
                  (agent i).Protocols.Routing_intf.receive ~src frame;
                  Obs.stop span_receive
                end
                else (agent i).Protocols.Routing_intf.receive ~src frame);
            on_unicast_success =
              (fun ~frame ~dst ->
                (agent i).Protocols.Routing_intf.unicast_ok ~frame ~dst);
            on_unicast_fail =
              (fun ~frame ~dst ->
                (agent i).Protocols.Routing_intf.unicast_failed ~frame ~dst);
          })
  in
  (* the one emission point of a routing-layer drop, for live agents and the
     crashed-node stand-in alike: traced, so the packet ledger (originated =
     delivered + dropped + in-flight) balances under crashes, then counted *)
  let drop_data i data ~reason =
    Trace.pkt_drop trace ~node:i ~flow:data.Frame.flow ~seq:data.Frame.seq
      ~reason;
    Metrics.on_dropped metrics ~now:(Des.Engine.now engine) data ~reason
  in
  (* crash/restart swaps the node's agent; [incarnation] fences off the old
     incarnation's still-pending engine timers, whose closures would
     otherwise keep transmitting the pre-crash state after the reboot *)
  let incarnation = Array.make config.nodes 0 in
  let make_ctx i ~rng_tag =
    let inc = incarnation.(i) in
    let live () = incarnation.(i) = inc in
    {
      Protocols.Routing_intf.id = i;
      node_count = config.nodes;
      engine;
      rng = Des.Rng.split root rng_tag;
      trace;
      mac_send =
        (fun frame -> if live () then Wireless.Mac80211.send macs.(i) frame);
      deliver =
        (fun data ->
          if live () then begin
            let now = Des.Engine.now engine in
            Trace.pkt_deliver trace ~node:i ~flow:data.Frame.flow
              ~seq:data.Frame.seq
              ~latency:(now -. data.Frame.sent_at)
              ~hops:data.Frame.hops;
            Metrics.on_delivered metrics ~now data
          end);
      drop_data = (fun data ~reason -> if live () then drop_data i data ~reason);
    }
  in
  for i = 0 to config.nodes - 1 do
    agents.(i) <- Some (build i (make_ctx i ~rng_tag:(Printf.sprintf "agent-%d" i)))
  done;
  let faults =
    if Faults.Spec.is_none config.faults then None
    else begin
      let faults_rng = Des.Rng.split root "faults" in
      let plan =
        Faults.Spec.plan config.faults
          ~rng:(Des.Rng.split faults_rng "plan")
          ~nodes:config.nodes ~duration:config.duration
      in
      let injector =
        Faults.Injector.create ~trace engine ~nodes:config.nodes
          ~rng:(Des.Rng.split faults_rng "bursts")
          ~plan
          ~on_crash:(fun i ->
            incarnation.(i) <- incarnation.(i) + 1;
            Wireless.Mac80211.reset macs.(i);
            agents.(i) <- Some (dead_agent (drop_data i)))
          ~on_restart:(fun i ->
            (* reboot with fresh volatile state: labels, routes, MAC queue *)
            incarnation.(i) <- incarnation.(i) + 1;
            Wireless.Mac80211.reset macs.(i);
            let rng_tag = Printf.sprintf "agent-%d-r%d" i incarnation.(i) in
            agents.(i) <- Some (build i (make_ctx i ~rng_tag)))
      in
      Wireless.Channel.set_filter channel (fun ~src ~dst ->
          Faults.Injector.frame_ok injector ~src ~dst);
      on_faults injector;
      Some injector
    end
  in
  on_start engine;
  let live_gauges () =
    Array.fold_right
      (fun a acc ->
        match a with
        | Some agent -> agent.Protocols.Routing_intf.gauges () :: acc
        | None -> Protocols.Routing_intf.no_gauges :: acc)
      agents []
  in
  Sampler.start engine ~trace ~every:sample_every ~gauges:live_gauges
    ~mac_queue:(fun () ->
      Array.fold_left
        (fun acc mac -> acc + Wireless.Mac80211.queue_length mac)
        0 macs);
  let flows =
    Traffic.Model.generate config.traffic ~rng:traffic_rng ~nodes:config.nodes
      ~concurrent:config.flows ~from_time:config.traffic_start
      ~until:config.duration ~mean_duration:config.flow_mean_duration
  in
  Traffic.Cbr.schedule engine ~flows ~rate:config.packet_rate
    ~size:Config.packet_size ~send:(fun ~src data ~size ->
      Trace.pkt_originate trace ~node:src ~flow:data.Frame.flow
        ~seq:data.Frame.seq ~dst:data.Frame.final_dst;
      Metrics.on_sent metrics data;
      (agent src).Protocols.Routing_intf.originate data ~size);
  (* the watchdog makes wedged cells supervisable: it schedules nothing,
     so event counts and outcomes are untouched, and Timeout unwinds here.
     Whatever happens, the tracer is flushed — an aborted run must leave a
     valid JSONL prefix, not a torn line. *)
  let watchdog =
    Option.map (fun d () -> Supervisor.check_deadline (Some d)) deadline
  in
  Fun.protect
    ~finally:(fun () -> Trace.close trace)
    (fun () -> Des.Engine.run ?watchdog engine ~until:config.duration);
  let control_tx =
    Array.fold_left
      (fun acc mac -> acc + (Wireless.Mac80211.stats mac).Wireless.Mac80211.tx_control)
      0 macs
  in
  let sum_stat f =
    Array.fold_left (fun acc mac -> acc + f (Wireless.Mac80211.stats mac)) 0 macs
  in
  let gauges =
    Array.to_list
      (Array.map
         (fun a ->
           match a with
           | Some agent -> agent.Protocols.Routing_intf.gauges ()
           | None -> Protocols.Routing_intf.no_gauges)
         agents)
  in
  let fault_events, fault_frames_blocked =
    match faults with
    | None -> (0, 0)
    | Some injector ->
        let s = Faults.Injector.stats injector in
        (Faults.Injector.event_count s, s.Faults.Injector.frames_blocked)
  in
  let result =
    Metrics.finalize metrics ~control_tx
      ~data_tx:(sum_stat (fun s -> s.Wireless.Mac80211.tx_data))
      ~drop_queue_full:(sum_stat (fun s -> s.Wireless.Mac80211.drop_queue_full))
      ~drop_retry:(sum_stat (fun s -> s.Wireless.Mac80211.drop_retry))
      ~collisions:(Wireless.Channel.collisions channel)
      ~nodes:config.nodes ~gauges ~fault_events ~fault_frames_blocked
      ~engine_events:(Des.Engine.executed engine)
  in
  Trace.close trace;
  result

let run ?trace ?sample_every ?deadline config =
  run_custom ?trace ?sample_every ?deadline config
    ~build:(fun _ ctx -> build_agent config ctx)
    ~on_start:(fun _ -> ())
