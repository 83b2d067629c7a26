type protocol = Srp | Ldr | Aodv | Dsr | Olsr

let all_protocols = [ Srp; Ldr; Aodv; Dsr; Olsr ]

let protocol_name = function
  | Srp -> "SRP"
  | Ldr -> "LDR"
  | Aodv -> "AODV"
  | Dsr -> "DSR"
  | Olsr -> "OLSR"

let protocol_of_name s =
  match String.uppercase_ascii s with
  | "SRP" -> Some Srp
  | "LDR" -> Some Ldr
  | "AODV" -> Some Aodv
  | "DSR" -> Some Dsr
  | "OLSR" -> Some Olsr
  | _ -> None

let fig7_protocols = [ Srp; Ldr; Aodv ]

type channel = Grid | Naive

let channel_name = function Grid -> "grid" | Naive -> "naive"

let channel_of_name s =
  match String.lowercase_ascii s with
  | "grid" -> Some Grid
  | "naive" -> Some Naive
  | _ -> None

type t = {
  protocol : protocol;
  nodes : int;
  terrain : Wireless.Terrain.t;
  pause : float;
  speed_min : float;
  speed_max : float;
  duration : float;
  traffic_start : float;
  flows : int;
  flow_mean_duration : float;
  packet_rate : float;
  seed : int;
  faults : Faults.Spec.t;
  channel : channel;
  mobility : Wireless.Mobility.id;
  traffic : Traffic.Model.id;
  srp : Protocols.Srp.config;
  aodv : Protocols.Aodv.config;
  ldr : Protocols.Ldr.config;
  dsr : Protocols.Dsr.config;
  olsr : Protocols.Olsr.config;
}

let packet_size = 512

let paper =
  {
    protocol = Srp;
    nodes = 100;
    terrain = Wireless.Terrain.paper;
    pause = 0.0;
    speed_min = 0.5;
    speed_max = 20.0;
    duration = 900.0;
    traffic_start = 15.0;
    flows = 30;
    flow_mean_duration = 60.0;
    packet_rate = 4.0;
    seed = 1;
    faults = Faults.Spec.none;
    channel = Grid;
    mobility = Wireless.Mobility.default;
    traffic = Traffic.Model.default;
    srp = Protocols.Srp.default_config;
    aodv = Protocols.Aodv.default_config;
    ldr = Protocols.Ldr.default_config;
    dsr = Protocols.Dsr.default_config;
    olsr = Protocols.Olsr.default_config;
  }

let reproduction = { paper with flows = 12 }

let small =
  {
    paper with
    nodes = 50;
    terrain = Wireless.Terrain.make ~width:1500.0 ~height:400.0;
    duration = 120.0;
    flows = 15;
  }

let paper_pause_times = [ 0.0; 50.0; 100.0; 200.0; 300.0; 500.0; 700.0; 900.0 ]

(* --scale presets: node count x terrain side x flow count, holding the
   paper's node density (100 nodes on 2200 m x 600 m = one node per
   13,200 m^2) and this reproduction's offered load (12 flows per 100
   nodes, the calibrated near-saturation regime) constant. Terrains above
   the paper's are square: at city scale the 2200x600 corridor shape stops
   mattering and a square keeps the hop diameter growing as sqrt(n). *)
type scale = {
  scale_name : string;
  scale_nodes : int;
  scale_terrain : Wireless.Terrain.t;
  scale_flows : int;
}

let scales =
  [
    {
      scale_name = "100";
      scale_nodes = 100;
      scale_terrain = Wireless.Terrain.paper;
      scale_flows = 12;
    };
    {
      scale_name = "1k";
      scale_nodes = 1000;
      (* sqrt(1000 * 13,200) = 3633 m *)
      scale_terrain = Wireless.Terrain.make ~width:3633.0 ~height:3633.0;
      scale_flows = 120;
    };
    {
      scale_name = "5k";
      scale_nodes = 5000;
      (* sqrt(5000 * 13,200) = 8124 m *)
      scale_terrain = Wireless.Terrain.make ~width:8124.0 ~height:8124.0;
      scale_flows = 600;
    };
  ]

let scale_names = List.map (fun s -> s.scale_name) scales

let scale_of_name name =
  List.find_opt (fun s -> s.scale_name = name) scales

let apply_scale s t =
  {
    t with
    nodes = s.scale_nodes;
    terrain = s.scale_terrain;
    flows = s.scale_flows;
  }

let to_json (t : t) =
  let module J = Trace.Json in
  J.Obj
    [
      ("protocol", J.String (protocol_name t.protocol));
      ("nodes", J.Int t.nodes);
      ("terrain_width", J.Float t.terrain.Wireless.Terrain.width);
      ("terrain_height", J.Float t.terrain.Wireless.Terrain.height);
      ("radio_range", J.Float Wireless.Radio.range);
      ("radio_bitrate", J.Float Wireless.Radio.bitrate);
      ("pause", J.Float t.pause);
      ("speed_min", J.Float t.speed_min);
      ("speed_max", J.Float t.speed_max);
      ("duration", J.Float t.duration);
      ("traffic_start", J.Float t.traffic_start);
      ("flows", J.Int t.flows);
      ("flow_mean_duration", J.Float t.flow_mean_duration);
      ("packet_rate", J.Float t.packet_rate);
      ("packet_size", J.Int packet_size);
      ("seed", J.Int t.seed);
      ("faults", J.Bool (not (Faults.Spec.is_none t.faults)));
      ("labels", J.String (Slr.Label_set.name t.srp.Protocols.Srp.labels));
      ("channel", J.String (channel_name t.channel));
      ("mobility", J.String (Wireless.Mobility.name t.mobility));
      ("traffic", J.String (Traffic.Model.name t.traffic));
    ]

let labels t = t.srp.Protocols.Srp.labels

let with_labels t labels =
  { t with srp = { t.srp with Protocols.Srp.labels } }
