(** The pure property catalogue: label arithmetic, Algorithm 1, Farey
    interpolation, abstract SLR loop freedom, SRP-over-wire model
    agreement, and spatial-grid/naive channel equivalence
    ([channel-grid-equiv]). Everything here runs without the full
    simulator; the sim-level properties live in [Sim.Fuzz] and the CLI
    concatenates both catalogues. *)

(** Reusable generators (also used by the unit-test suites). *)

(** Canonical proper fraction, denominators up to 10^4; occasionally the
    exact end points 0/1 and 1/1. *)
val fraction : Slr.Fraction.t Gen.t

(** Ordering with a small sequence number (collisions likely) and a
    {!fraction} feasible distance. *)
val ordering : Slr.Ordering.t Gen.t

(** The catalogue, in stable order; names are part of the replay
    interface. *)
val all : Runner.packed list
