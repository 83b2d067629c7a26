(** Simulation-campaign configuration. {!paper} mirrors the paper's setup:
    100 nodes on 2200 m × 600 m, 2 Mbps 802.11, random waypoint at 0–20 m/s,
    30 concurrent 512-byte 4-packets/s CBR flows, 900 s runs. The radio and
    MAC parameters are {!Wireless.Radio}'s constants and the packet size is
    {!packet_size} in every world. *)

type protocol = Srp | Ldr | Aodv | Dsr | Olsr

val all_protocols : protocol list

val protocol_name : protocol -> string

(** Inverse of {!protocol_name}, case-insensitive. *)
val protocol_of_name : string -> protocol option

(** Protocols that expose a sequence number (Fig. 7). *)
val fig7_protocols : protocol list

(** Neighbour-sweep implementation the channel uses. {!Grid} (the default
    in every preset) is the spatial-hash path; {!Naive} is the O(n²) full
    scan retained as the property-tested oracle ([--channel naive]). The
    two are observationally identical — same deliveries, same collisions,
    same engine order — enforced by the [channel-grid-equiv] property. *)
type channel = Grid | Naive

val channel_name : channel -> string

(** Inverse of {!channel_name}, case-insensitive. *)
val channel_of_name : string -> channel option

type t = {
  protocol : protocol;
  nodes : int;
  terrain : Wireless.Terrain.t;
  pause : float;  (** random-waypoint pause time, s *)
  speed_min : float;
  speed_max : float;
  duration : float;  (** simulated seconds *)
  traffic_start : float;  (** flows begin after this warm-up *)
  flows : int;  (** concurrent CBR flows *)
  flow_mean_duration : float;
  packet_rate : float;  (** packets per second per flow *)
  seed : int;  (** trial seed: shared across protocols *)
  faults : Faults.Spec.t;
      (** fault-injection schedule; {!Faults.Spec.none} (the default in every
          preset) bypasses the whole subsystem so clean runs are bitwise
          identical to pre-fault builds *)
  channel : channel;
      (** neighbour-sweep path; {!Grid} in every preset, {!Naive} is the
          escape hatch back to the oracle full scan *)
  mobility : Wireless.Mobility.id;
      (** mobility-model instance; the default ({!Wireless.Mobility.default},
          random waypoint) reproduces the historical runner byte-for-byte *)
  traffic : Traffic.Model.id;
      (** traffic-model instance; the default ({!Traffic.Model.default}, CBR)
          reproduces the historical runner byte-for-byte *)
  srp : Protocols.Srp.config;  (** protocol tuning (ablation benches) *)
  aodv : Protocols.Aodv.config;
  ldr : Protocols.Ldr.config;
  dsr : Protocols.Dsr.config;
  olsr : Protocols.Olsr.config;
}

(** Bytes of every CBR packet, the paper's 512. *)
val packet_size : int

(** The paper's full-scale scenario (pause and protocol to be set). *)
val paper : t

(** The default reproduction campaign: the paper's scenario with the
    offered load scaled to this substrate's measured stable capacity
    (12 concurrent flows instead of 30), so the network operates in the
    same near-saturation regime as the paper's GloMoSim runs. See
    EXPERIMENTS.md for the calibration. *)
val reproduction : t

(** A scaled-down scenario for tests and quick benches: fewer nodes on a
    proportionally smaller terrain, shorter runs. The load per node and the
    connectivity structure stay comparable. *)
val small : t

(** The paper's eight pause times (0 = constant mobility, 900 = static). *)
val paper_pause_times : float list

(** A [--scale] preset: node count, terrain and flow count at constant
    node density (one node per 13,200 m², the paper's) and constant
    offered load per node (12 flows per 100 nodes, this reproduction's
    calibrated near-saturation regime). *)
type scale = {
  scale_name : string;
  scale_nodes : int;
  scale_terrain : Wireless.Terrain.t;
  scale_flows : int;
}

(** Registered presets, in size order: ["100"] (the paper's world),
    ["1k"] and ["5k"] (city-scale square terrains). *)
val scales : scale list

(** Preset names, in registry order (for usage listings). *)
val scale_names : string list

val scale_of_name : string -> scale option

(** Overlay a scale preset onto a configuration: sets nodes, terrain and
    flows; everything else (duration, seeds, protocol tuning, scenario
    models) is left alone. The ["100"] preset reproduces
    {!reproduction}'s world exactly. *)
val apply_scale : scale -> t -> t

(** Scalar scenario parameters as a flat JSON object (protocol tuning
    records are omitted; [faults] reduces to whether a plan is present;
    ["labels"], ["channel"], ["mobility"] and ["traffic"] name the
    pluggable instances). Embedded in every [--json] export so a result
    file is self-describing. *)
val to_json : t -> Trace.Json.t

(** The SLR label-set instance SRP mints feasible distances from — the
    campaign axis of the label-set showdown (EXPERIMENTS.md). Stored in the
    SRP tuning record; these project and update it. *)
val labels : t -> Slr.Label_set.id

val with_labels : t -> Slr.Label_set.id -> t

val with_faults : t -> Faults.Spec.t -> t

val with_channel : t -> channel -> t

val with_mobility : t -> Wireless.Mobility.id -> t

val with_traffic : t -> Traffic.Model.id -> t
