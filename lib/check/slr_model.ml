module Ordering = Slr.Ordering
module Label = Slr.Label

type snapshot = {
  node : int;
  dst : int;
  order : Slr.Ordering.t;
  succs : (int * Slr.Ordering.t) list;
}

(* Per destination we mirror each node's last reported ordering and stored
   successor orderings; the orderings drive the Eq. 3 history check, and
   the whole mirror is what the loop verdict runs on. *)
type dst_state = (Ordering.t * (int * Ordering.t) list) option array

type t = {
  nodes : int;
  dsts : (int, dst_state) Hashtbl.t;
  mutable observations : int;
}

let create ~nodes = { nodes; dsts = Hashtbl.create 16; observations = 0 }

let dst_state t dst =
  match Hashtbl.find_opt t.dsts dst with
  | Some s -> s
  | None ->
      let s = Array.make t.nodes None in
      Hashtbl.replace t.dsts dst s;
      s

let observations t = t.observations

(* Eq. 3 between two finite orderings of one node: the sequence number is
   destination-controlled and only moves forward; at the same sequence
   number the feasible-distance label never grows. Instance-generic — the
   theorem is about the ordering, not the concrete label set. *)
let monotonic ~prev ~next =
  prev.Ordering.sn < next.Ordering.sn
  || (prev.Ordering.sn = next.Ordering.sn
     && Label.compare next.Ordering.label prev.Ordering.label <= 0)

let check_monotonic prev snap =
  match prev with
  | None -> Ok ()
  | Some (prev, _) ->
      if
        Ordering.is_unassigned prev
        || Ordering.is_unassigned snap.order
        || Ordering.equal prev snap.order
        || monotonic ~prev ~next:snap.order
      then Ok ()
      else
        Error
          (Format.asprintf "node %d raised its label: %a then %a (Eq. 3)"
             snap.node Ordering.pp prev Ordering.pp snap.order)

let observe t snap =
  if snap.node < 0 || snap.node >= t.nodes then
    invalid_arg "Slr_model.observe: bad node";
  t.observations <- t.observations + 1;
  let state = dst_state t snap.dst in
  let prev = state.(snap.node) in
  (* record even a violating report: replays of the same trace keep
     reporting from the first violation on *)
  state.(snap.node) <- Some (snap.order, snap.succs);
  Result.map_error
    (Printf.sprintf "dst %d: %s" snap.dst)
    (match check_monotonic prev snap with
    | Error _ as e -> e
    | Ok () -> Slr.Dag.check_graph t.nodes (Array.get state))
