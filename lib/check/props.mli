(** The pure property catalogue: label arithmetic and order, Algorithm 1,
    Farey interpolation, abstract SLR loop freedom, SRP-over-wire model
    agreement, one SRP agent under arbitrary control traffic, summary
    merging, and spatial-grid/naive channel equivalence
    ([channel-grid-equiv]). Everything here runs without the full
    simulator; the sim-level properties live in [Sim.Fuzz] and the CLI
    concatenates both catalogues. *)

(** The catalogue, in stable order; names are part of the replay
    interface. *)
val all : Runner.packed list
