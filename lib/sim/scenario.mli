(** The scenario registry: one name ([--scenario NAME]) bundles a mobility
    model, a traffic model and an optional fault or adversary plan into a
    seeded, reproducible workload.

    Two kinds of entries. {e Workload} scenarios parameterize an ordinary
    campaign through {!apply} — the [default] entry pins the paper's
    random-waypoint + CBR workload and is byte-identical to a run with no
    scenario at all. The {e adversarial} entry replays the van Glabbeek
    AODV counterexample (3 nodes, repair race, forged stale route reply)
    against any of the five protocols over the {!Check.Wire} harness with
    an online loop monitor armed. *)

type workload = {
  mobility : Wireless.Mobility.id;
  traffic : Traffic.Model.id;
  faults : Faults.Spec.t option;
      (** a plan the scenario arms by default; an explicitly configured
          fault spec takes precedence in {!apply} *)
}

type body = Workload of workload | Adversarial

type t = { name : string; summary : string; body : body }

(** Registered scenarios, the [default] entry first. *)
val all : t list

val default : t

(** Registered names, in registry order (for usage listings). *)
val names : string list

val find : string -> t option

val is_adversarial : t -> bool

(** Overlay a workload scenario onto a campaign configuration: sets the
    mobility and traffic instances, and arms the scenario's fault plan
    unless the configuration already carries one.
    @raise Invalid_argument on an adversarial scenario. *)
val apply : t -> Config.t -> Config.t

(** One protocol's outcome under the adversarial replay. *)
type verdict = {
  vprotocol : Config.protocol;
  flagged : bool;  (** the online monitor saw a routing loop mid-run *)
  final_cycle : bool;  (** the next-hop graph toward the destination ends cyclic *)
  detail : string;  (** human-readable outcome *)
}

(** Did any monitor — online or final — see a loop? *)
val loop_detected : verdict -> bool

val pp_verdict : Format.formatter -> verdict -> unit

(** Run the van Glabbeek replay for one protocol: discovery through the
    middle node, link break, repair race, forged stale advertisement in
    the protocol's own message vocabulary, 30 s of settling. Deterministic
    (fixed harness seed). *)
val run_adversarial : protocol:Config.protocol -> verdict

(** {!run_adversarial} for all five protocols, in {!Config.all_protocols}
    order. *)
val run_adversarial_all : unit -> verdict list
