(** Deterministic fault schedules.

    A spec describes *how much* adversity to inject (flap rate, crash count,
    partition count, loss-burst rate); {!plan} expands it into a concrete,
    time-sorted event list using a dedicated RNG substream, so the same
    [(seed, spec, nodes, duration)] always yields the same schedule — the
    property the determinism tests rely on. Explicit [extra] events can pin
    exact scenarios (e.g. "flap this one link at t=10 s") for regression
    tests. *)

type event =
  | Link_down of { la : int; lb : int }
      (** the radio link between two nodes goes deaf in both directions *)
  | Link_up of { la : int; lb : int }
  | Crash of { node : int }
      (** the node loses all volatile state (routes, labels, MAC queue) and
          falls silent *)
  | Restart of { node : int }  (** the node reboots with fresh state *)
  | Partition_start of { id : int; members : bool array }
      (** frames between [members] and non-members are lost *)
  | Partition_heal of { id : int }
  | Burst_start of { id : int; drop_p : float }
      (** every frame is independently lost with probability [drop_p] *)
  | Burst_end of { id : int }

type timed = { at : float; ev : event }

type t = {
  flap_rate : float;  (** link flaps per second, network-wide (Poisson) *)
  flap_down_mean : float;  (** mean seconds a flapped link stays down *)
  crashes : int;  (** node crashes over the run *)
  crash_down_mean : float;  (** mean seconds a crashed node stays down *)
  partitions : int;  (** network partitions over the run *)
  partition_mean : float;  (** mean seconds a partition lasts *)
  burst_rate : float;  (** loss bursts per second (Poisson) *)
  burst_mean : float;  (** mean seconds a burst lasts *)
  burst_drop_p : float;  (** per-frame drop probability during a burst *)
  extra : timed list;  (** explicit events appended to the generated plan *)
}

(** No faults at all; {!Sim.Runner} skips the whole subsystem for it. *)
val none : t

val is_none : t -> bool

(** Moderate churn: 0.5 link flaps/s, 2 node crashes, occasional 50%%
    loss bursts. *)
val default : t

(** [plan t ~rng ~nodes ~duration] expands the spec into a time-sorted
    schedule. Paired events (down/up, crash/restart, start/heal) are both
    emitted even when the up event lands past [duration]. *)
val plan : t -> rng:Des.Rng.t -> nodes:int -> duration:float -> timed list

(** One-line summary of the spec's knobs (for counterexample reports). *)
val pp : Format.formatter -> t -> unit
