(* The benchmark's four workloads, defined once. Each is a closed-loop
   batch job: one simulated world (or one campaign) runs to completion
   before the next starts. The workload seed is the only input the
   benchmark varies; the simulator receives nothing but the
   [Sim.Config.t] built here. README.md records why each was chosen.

   Worlds carry the traffic the repo's presets generate: flows of 4
   packets/s with a 60 s mean length, 12 per 100 nodes (the reproduction
   and the scale presets) or the paper's 30. A run measures a fixed number
   of worlds, [worlds], so a parent and a change are always compared over
   the same worlds. *)

type job =
  | Run of { config : Sim.Config.t; jsonl : bool }
      (** one {!Sim.Runner} world; [jsonl] streams every trace record as
          JSON to /dev/null *)
  | Campaign of {
      base : Sim.Config.t;
      protocols : Sim.Config.protocol list;
      pauses : float list;
      pause_scale : float;
      jobs : int;
    }  (** {!Sim.Experiment.run}, one trial per (protocol, pause) cell *)

type t = {
  name : string;
  why : string;
  worlds : int;  (** worlds measured per run *)
  job : seed:int -> smoke:bool -> job;  (** [seed] is a world seed *)
}

(* world [i] of workload seed [n] *)
let world_seed ~seed i = (1000 * seed) + i

(* A 100-node world at pause 0 under one of the repo's presets, with
   traffic from the preset's 15 s; the smoke horizon is 4 s, traffic from
   1 s. *)
let world_100 preset ~seed ~protocol ~duration ~smoke =
  let config = { preset with Sim.Config.seed; protocol; pause = 0.0 } in
  if smoke then { config with duration = 4.0; traffic_start = 1.0 }
  else { config with duration }

(* SRP on the 1k preset: 1000 nodes on a 3633 m square, 120 flows, traffic
   from 5 s, 20 s horizon: the scale sweep's 1k world *)
let kilo_srp ~seed ~smoke =
  let scale = Option.get (Sim.Config.scale_of_name "1k") in
  let config =
    Sim.Config.apply_scale scale
      { Sim.Config.reproduction with seed; protocol = Sim.Config.Srp; pause = 0.0 }
  in
  let traffic_start, duration = if smoke then (0.5, 1.0) else (5.0, 20.0) in
  Run { config = { config with traffic_start; duration }; jsonl = false }

(* OLSR on the reproduction's 12 flows: proactive HELLO/TC flooding and
   route recomputation make the protocol, not the channel, the hot layer *)
let olsr_100 ~seed ~smoke =
  Run
    {
      config =
        world_100 Sim.Config.reproduction ~seed ~protocol:Sim.Config.Olsr
          ~duration:180.0 ~smoke;
      jsonl = false;
    }

(* the paper's campaign: its 30 flows, 5 protocols x 8 pause times x 1
   trial on two domains, pauses scaled to the 40 s horizon as the reduced
   campaigns do *)
let campaign_100 ~seed ~smoke =
  let base =
    world_100 Sim.Config.paper ~seed ~protocol:Sim.Config.Srp ~duration:40.0
      ~smoke
  in
  Campaign
    {
      base;
      protocols = Sim.Config.all_protocols;
      pauses = Sim.Config.paper_pause_times;
      pause_scale = base.duration /. 900.0;
      jobs = 2;
    }

(* SRP on the paper's 30 flows under the hostile scenario's fault plan,
   every trace record serialised: the only workload that exercises Trace
   and Faults *)
let hostile_traced ~seed ~smoke =
  let hostile = Option.get (Sim.Scenario.find "hostile") in
  let config =
    world_100 Sim.Config.paper ~seed ~protocol:Sim.Config.Srp ~duration:120.0
      ~smoke
  in
  Run { config = Sim.Scenario.apply hostile config; jsonl = true }

let all =
  [
    {
      name = "kilo-srp";
      why =
        "1000-node SRP: Wireless.Channel and Wireless.Mac80211 (backoff, \
         transmit, receive) do most of the work";
      worlds = 2;
      job = kilo_srp;
    };
    {
      name = "olsr-100";
      why =
        "100-node OLSR: Protocols.Olsr receive, timers and route \
         recomputation dominate; channel sweeps are cheap";
      worlds = 2;
      job = olsr_100;
    };
    {
      name = "campaign-100";
      why =
        "Sim.Experiment on 2 domains: Sim.Pool, Sim.Supervisor, 40 world \
         builds, every protocol and pause time";
      worlds = 1;
      job = campaign_100;
    };
    {
      name = "hostile-traced";
      why =
        "SRP under faults with every event serialised as JSONL: Trace and \
         Faults.Injector on top of the same engine";
      worlds = 2;
      job = hostile_traced;
    };
  ]

let names = List.map (fun w -> w.name) all

let find name = List.find_opt (fun w -> w.name = name) all
