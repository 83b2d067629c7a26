let span_sample = Obs.span "event.sample"

let start engine ~trace ~every ~gauges ~mac_queue =
  if Trace.enabled trace && every > 0.0 then begin
    let prev_executed = ref (Des.Engine.executed engine) in
    let rec tick () =
      let g = gauges () in
      let executed = Des.Engine.executed engine in
      let events_per_sec =
        float_of_int (executed - !prev_executed) /. every
      in
      prev_executed := executed;
      Trace.gauge trace ~routes:g.Protocols.Routing_intf.route_entries
        ~pending:g.Protocols.Routing_intf.pending_packets
        ~mac_queue:(mac_queue ())
        ~live_events:(Des.Engine.pending engine)
        ~executed ~events_per_sec
        ~label_width_bits:g.Protocols.Routing_intf.label_width_bits
        ~label_resets:g.Protocols.Routing_intf.label_resets;
      ignore (Des.Engine.schedule ~span:span_sample engine ~delay:every tick)
    in
    ignore (Des.Engine.schedule ~span:span_sample engine ~delay:every tick)
  end
