(** Simulator-level fuzz properties: full {!Runner} campaigns on randomly
    generated scenarios, checked against the reference model and against
    the packet-conservation ledger. These are the expensive cells of the
    catalogue ([cost] 10): the fuzz CLI and the fixed-seed suite scale
    their case budget down accordingly. *)

(** The catalogue; the CLI concatenates it with [Check.Props.all]. Besides
    the three core cells (which fuzz the default mediant instance), it
    carries one [srp-sim-model-<set>] cell per non-default label-set
    instance: the identical Ordering-Criteria oracle must hold whatever
    dense set mints the labels. *)
val props : Check.Runner.packed list

(** The three core cells with every generated case pinned to a label-set
    instance and to mobility and traffic models, each the default unless
    given (cell names unchanged, so [--prop]/[--replay] are stable across
    instances). Backs [manet_sim fuzz --labels] and [--scenario]. *)
val props_pinned :
  ?labels:Slr.Label_set.id ->
  ?mobility:Wireless.Mobility.id ->
  ?traffic:Traffic.Model.id ->
  unit ->
  Check.Runner.packed list
