(* The Hashtbl/Queue OLSR route computation and MPR selection that
   Protocols.Olsr ran before its flat-array rewrite, kept verbatim as the
   reference for the [olsr-routes-oracle] property. Only the state those
   two computations read is modelled: the neighbour table, the topology
   table and the TC duplicate cache. Nothing is sent. It is also the
   reference for the agent's topology set, which is purged as TCs merge:
   this table is never purged. *)

module Routing_intf = Protocols.Routing_intf
module Seen_cache = Protocols.Seen_cache
module Olsr = Protocols.Olsr

type neighbor = {
  mutable sym : bool;
  mutable expiry : float;
  mutable two_hop : int list;  (** that neighbour's symmetric neighbours *)
  mutable selected_us : bool;  (** we are in its MPR set *)
}

type topo_edge = { mutable t_expiry : float }

type t = {
  ctx : Routing_intf.ctx;
  neighbors : (int, neighbor) Hashtbl.t;
  (* (advertising originator = last hop, destination) -> expiry *)
  topology : (int * int, topo_edge) Hashtbl.t;
  seen_tc : Seen_cache.t;
  mutable mpr_set : int list;
  mutable route_dirty : bool;
  mutable routes : (int, int) Hashtbl.t;  (** dst -> next hop *)
}

let create ctx =
  {
    ctx;
    neighbors = Hashtbl.create 16;
    topology = Hashtbl.create 64;
    seen_tc =
      Seen_cache.create ctx.Routing_intf.engine ~ttl:Routing_intf.seen_lifetime;
    mpr_set = [];
    route_dirty = true;
    routes = Hashtbl.create 32;
  }

let now t = Des.Engine.now t.ctx.Routing_intf.engine

let sym_neighbors t =
  let time = now t in
  Hashtbl.fold
    (fun id n acc -> if n.sym && n.expiry > time then id :: acc else acc)
    t.neighbors []

let mprs t = t.mpr_set

(* Greedy MPR selection: cover every strict 2-hop neighbour with the fewest
   1-hop symmetric neighbours, preferring the ones covering the most. *)
let select_mprs t =
  let time = now t in
  let me = t.ctx.Routing_intf.id in
  let nbrs =
    Hashtbl.fold
      (fun id n acc -> if n.sym && n.expiry > time then (id, n) :: acc else acc)
      t.neighbors []
  in
  let nbr_ids = List.map fst nbrs in
  let uncovered = Hashtbl.create 16 in
  List.iter
    (fun (_, n) ->
      List.iter
        (fun h ->
          if h <> me && not (List.mem h nbr_ids) then
            Hashtbl.replace uncovered h ())
        n.two_hop)
    nbrs;
  let mpr = ref [] in
  while Hashtbl.length uncovered > 0 do
    let best = ref None in
    List.iter
      (fun (id, n) ->
        if not (List.mem id !mpr) then begin
          let cover =
            List.length (List.filter (Hashtbl.mem uncovered) n.two_hop)
          in
          match !best with
          | Some (_, c) when c >= cover -> ()
          | _ -> if cover > 0 then best := Some ((id, n), cover)
        end)
      nbrs;
    match !best with
    | None -> Hashtbl.reset uncovered
    | Some ((id, n), _) ->
        mpr := id :: !mpr;
        List.iter (Hashtbl.remove uncovered) n.two_hop
  done;
  t.mpr_set <- !mpr

(* ------------------------------------------------------------------ *)
(* Routing table: BFS over symmetric links + learned topology edges     *)

let recompute_routes t =
  let time = now t in
  let routes = Hashtbl.create 32 in
  let queue = Queue.create () in
  List.iter
    (fun n ->
      Hashtbl.replace routes n n;
      Queue.add n queue)
    (sym_neighbors t);
  (* adjacency from TC entries (last_hop -> destinations) plus the two-hop
     neighbourhood learned from HELLOs *)
  let adj = Hashtbl.create 64 in
  let add_edge from dest =
    Hashtbl.replace adj from
      (dest :: Option.value ~default:[] (Hashtbl.find_opt adj from))
  in
  Hashtbl.iter
    (fun (last_hop, dest) edge ->
      if edge.t_expiry > time then add_edge last_hop dest)
    t.topology;
  Hashtbl.iter
    (fun id n ->
      if n.sym && n.expiry > time then List.iter (add_edge id) n.two_hop)
    t.neighbors;
  while not (Queue.is_empty queue) do
    let node = Queue.pop queue in
    let via = Hashtbl.find routes node in
    List.iter
      (fun dest ->
        if dest <> t.ctx.Routing_intf.id && not (Hashtbl.mem routes dest)
        then begin
          Hashtbl.replace routes dest via;
          Queue.add dest queue
        end)
      (Option.value ~default:[] (Hashtbl.find_opt adj node))
  done;
  t.routes <- routes;
  t.route_dirty <- false

let next_hop t ~dst =
  if t.route_dirty then recompute_routes t;
  Hashtbl.find_opt t.routes dst

let route_entries t = Hashtbl.length t.routes

(* ------------------------------------------------------------------ *)
(* Control traffic: the state updates only                              *)

let hello_links t =
  select_mprs t;
  let time = now t in
  Hashtbl.fold
    (fun id n acc ->
      if n.expiry > time then (id, n.sym, List.mem id t.mpr_set) :: acc
      else acc)
    t.neighbors []

let neighbor_for t id =
  match Hashtbl.find_opt t.neighbors id with
  | Some n -> n
  | None ->
      let n = { sym = false; expiry = 0.0; two_hop = []; selected_us = false } in
      Hashtbl.replace t.neighbors id n;
      n

let handle_hello t (hello : Olsr.hello) =
  let me = t.ctx.Routing_intf.id in
  let n = neighbor_for t hello.h_origin in
  n.expiry <- now t +. Olsr.neighbor_hold;
  let about_me =
    List.find_opt (fun (id, _, _) -> id = me) hello.h_links
  in
  (match about_me with
  | Some (_, _, is_mpr) ->
      (* it hears us and we hear it: the link is symmetric *)
      n.sym <- true;
      n.selected_us <- is_mpr
  | None ->
      (* asymmetric (it does not list us yet) *)
      n.sym <- n.sym && false);
  n.two_hop <-
    List.filter_map
      (fun (id, sym, _) -> if sym && id <> me then Some id else None)
      hello.h_links;
  t.route_dirty <- true

let handle_tc t (tc : Olsr.tc) =
  let me = t.ctx.Routing_intf.id in
  if tc.t_origin = me then ()
  else if
    not (Seen_cache.witness t.seen_tc ~origin:tc.t_origin ~id:tc.t_ansn)
  then ()
  else begin
    let expiry = now t +. Olsr.topology_hold in
    List.iter
      (fun dest ->
        if dest <> me then begin
          match Hashtbl.find_opt t.topology (tc.t_origin, dest) with
          | Some edge -> edge.t_expiry <- expiry
          | None ->
              Hashtbl.replace t.topology (tc.t_origin, dest)
                { t_expiry = expiry }
        end)
      tc.t_advertised;
    t.route_dirty <- true
  end
