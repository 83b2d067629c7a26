let span_timer = Obs.span "proto.olsr.timer"
let route_recomputes = Obs.counter "olsr.route.recomputes"
let topology_scanned = Obs.counter "olsr.topology.scanned"

module Frame = Wireless.Frame

type config = unit

let default_config = ()

(* HELLO and TC periods, s, each shortened by a random share of up to
   [jitter]; how long a neighbour (3 x hello) and a topology entry (3 x tc)
   stay valid, s; and the message sizes, bytes: a base plus
   [per_entry_bytes] per listed link or advertised neighbour. *)
let hello_interval = 2.0
let tc_interval = 5.0
let jitter = 0.25
let neighbor_hold = 6.0
let topology_hold = 15.0
let hello_base_size = 16
let tc_base_size = 16
let per_entry_bytes = 4

type hello = { h_origin : int; h_links : (int * bool * bool) list }

type tc = { t_origin : int; t_ansn : int; t_advertised : int list }

type Frame.payload += Hello of hello | Tc of tc

type neighbor = {
  mutable sym : bool;
  mutable expiry : float;
  mutable two_hop : int list;  (** that neighbour's symmetric neighbours *)
  mutable selected_us : bool;  (** we are in its MPR set *)
}

(* One last hop's part of the topology set: the destinations its TCs
   advertised and when each expires, in the first [count] slots. *)
type last_hop = {
  mutable dests : int array;
  mutable expiries : float array;
  mutable count : int;
}

(* Shared by every last hop no TC has come from yet. [merge_tc] swaps in a
   fresh entry before it writes, so this one stays empty. *)
let no_tc = { dests = [||]; expiries = [||]; count = 0 }

type t = {
  ctx : Routing_intf.ctx;
  (* Never purged, unlike [topology]: expired neighbours are skipped. A
     purge would change the bucket layout, whose order seeds the BFS and so
     breaks every tie between equal-length routes (see [recompute_routes]). *)
  neighbors : (int, neighbor) Hashtbl.t;
  seen_tc : Seen_cache.t;
  mutable mpr_set : int list;
  mutable ansn : int;
  mutable route_dirty : bool;
  (* flat arrays indexed by node id, [||] until [ensure_arrays] *)
  mutable routes : int array;  (** dst -> next hop, [-1] = no route *)
  mutable route_count : int;  (** entries of [routes] that are set *)
  (* The topology set by last hop (TC originator). Purged as TCs merge:
     right after a last hop's TC its entry holds live destinations only;
     what expires before its next TC stays until then, skipped by the BFS. *)
  mutable topology : last_hop array;
  mutable ring : int array;  (** BFS queue *)
  mutable mark : int array;  (** MPR selection: see [m_sym] and friends *)
}

let now t = Des.Engine.now t.ctx.Routing_intf.engine

(* symmetric neighbours live at [time], with their records, in the
   reverse of the neighbours table's iteration order *)
let sym_entries t time =
  Hashtbl.fold
    (fun id nb acc ->
      if nb.sym && nb.expiry > time then (id, nb) :: acc else acc)
    t.neighbors []

let sym_neighbors t = List.map fst (sym_entries t (now t))

let mprs t = t.mpr_set

(* Allocate the flat arrays on first use rather than in [create_full]: a
   world build creates every agent, and touching four fresh arrays each
   shows in set-up time. *)
let ensure_arrays t =
  if Array.length t.routes = 0 then begin
    let n = t.ctx.Routing_intf.node_count in
    t.routes <- Array.make n (-1);
    t.topology <- Array.make n no_tc;
    t.ring <- Array.make n 0;
    t.mark <- Array.make n 0
  end

(* MPR selection marks; 0 is any other id *)
let m_sym = 1
let m_uncovered = 2
let m_mpr = 3

let rec count_uncovered mark acc = function
  | [] -> acc
  | h :: rest ->
      count_uncovered mark (if mark.(h) = m_uncovered then acc + 1 else acc) rest

(* Greedy MPR selection: cover every strict 2-hop neighbour with the fewest
   1-hop symmetric neighbours, preferring the ones covering the most. Ties
   go to the earliest candidate in [Hashtbl.fold] order, and a two-hop node
   listed twice counts twice. *)
let select_mprs t =
  ensure_arrays t;
  let mark = t.mark in
  Array.fill mark 0 (Array.length mark) 0;
  let time = now t in
  let me = t.ctx.Routing_intf.id in
  let nbrs = sym_entries t time in
  List.iter (fun (id, _) -> mark.(id) <- m_sym) nbrs;
  let uncovered = ref 0 in
  List.iter
    (fun (_, nb) ->
      List.iter
        (fun h ->
          if h <> me && mark.(h) = 0 then begin
            mark.(h) <- m_uncovered;
            incr uncovered
          end)
        nb.two_hop)
    nbrs;
  let mpr = ref [] in
  while !uncovered > 0 do
    (* some unchosen neighbour covers each uncovered node, so [best] is
       always found *)
    let best = ref (-1) and best_cover = ref 0 and best_hops = ref [] in
    List.iter
      (fun (id, nb) ->
        if mark.(id) <> m_mpr then begin
          let cover = count_uncovered mark 0 nb.two_hop in
          if cover > !best_cover then begin
            best := id;
            best_cover := cover;
            best_hops := nb.two_hop
          end
        end)
      nbrs;
    mpr := !best :: !mpr;
    mark.(!best) <- m_mpr;
    List.iter
      (fun h ->
        if mark.(h) = m_uncovered then begin
          mark.(h) <- 0;
          decr uncovered
        end)
      !best_hops
  done;
  t.mpr_set <- !mpr

(* ------------------------------------------------------------------ *)
(* Routing table: BFS over symmetric links + learned topology edges     *)

let recompute_routes t =
  ensure_arrays t;
  Obs.incr route_recomputes;
  let routes = t.routes and topology = t.topology and ring = t.ring in
  let n = Array.length routes in
  Array.fill routes 0 n (-1);
  let time = now t in
  let me = t.ctx.Routing_intf.id in
  (* Symmetric neighbours seed the queue in [sym_neighbors] order. This
     order is the only tie-break: children inherit their parent's first
     hop and enter the queue together, so every BFS level stays sorted by
     seed rank and a node's first hop is the earliest seed among its
     shortest paths, whatever order a node's edges are read in. *)
  let seeds = sym_entries t time in
  (* every id enters the ring at most once, so [n] slots never overrun *)
  let pushed = ref 0 in
  List.iter
    (fun (id, _) ->
      routes.(id) <- id;
      ring.(!pushed) <- id;
      incr pushed)
    seeds;
  let reach via dest =
    if dest <> me && routes.(dest) < 0 then begin
      routes.(dest) <- via;
      ring.(!pushed) <- dest;
      incr pushed
    end
  in
  (* A node's edges: a seed's two-hop neighbourhood from its HELLOs (the
     seeds pop first, in [seeds] order), then the node's live TC
     destinations, read where the topology set keeps them. *)
  let seeds_left = ref seeds and popped = ref 0 and scanned = ref 0 in
  while !popped < !pushed do
    let node = ring.(!popped) in
    incr popped;
    let via = routes.(node) in
    (match !seeds_left with
    | (_, nb) :: rest ->
        seeds_left := rest;
        List.iter (reach via) nb.two_hop
    | [] -> ());
    let entry = topology.(node) in
    for i = 0 to entry.count - 1 do
      if entry.expiries.(i) > time then reach via entry.dests.(i)
    done;
    scanned := !scanned + entry.count
  done;
  Obs.add topology_scanned !scanned;
  t.route_count <- !pushed;
  t.route_dirty <- false

(* Recomputes only after a HELLO or a new TC: between control messages the
   last table is served even once entries in it expire. *)
let next_hop t ~dst =
  if t.route_dirty then recompute_routes t;
  if dst < 0 || dst >= Array.length t.routes then None
  else
    let hop = t.routes.(dst) in
    if hop < 0 then None else Some hop

(* ------------------------------------------------------------------ *)
(* Control traffic                                                     *)

let period t base = base -. Des.Rng.float t.ctx.Routing_intf.rng (jitter *. base)

let send_hello t =
  select_mprs t;
  let time = now t in
  let links =
    Hashtbl.fold
      (fun id n acc ->
        if n.expiry > time then (id, n.sym, t.mark.(id) = m_mpr) :: acc
        else acc)
      t.neighbors []
  in
  let size = hello_base_size + (per_entry_bytes * List.length links) in
  t.ctx.Routing_intf.mac_send
    (Frame.with_kind
       (Frame.make ~src:t.ctx.Routing_intf.id ~dst:Frame.Broadcast ~size
          ~payload:(Hello { h_origin = t.ctx.Routing_intf.id; h_links = links }))
       "hello")

let selector_set t =
  let time = now t in
  Hashtbl.fold
    (fun id n acc ->
      if n.sym && n.expiry > time && n.selected_us then id :: acc else acc)
    t.neighbors []

let send_tc t =
  let advertised = selector_set t in
  if advertised <> [] then begin
    t.ansn <- t.ansn + 1;
    let size = tc_base_size + (per_entry_bytes * List.length advertised) in
    t.ctx.Routing_intf.mac_send
      (Frame.with_kind
         (Frame.make ~src:t.ctx.Routing_intf.id ~dst:Frame.Broadcast ~size
            ~payload:
              (Tc
                 {
                   t_origin = t.ctx.Routing_intf.id;
                   t_ansn = t.ansn;
                   t_advertised = advertised;
                 }))
         "tc")
  end

let neighbor_for t id =
  match Hashtbl.find_opt t.neighbors id with
  | Some n -> n
  | None ->
      let n = { sym = false; expiry = 0.0; two_hop = []; selected_us = false } in
      Hashtbl.replace t.neighbors id n;
      n

let handle_hello t hello =
  let me = t.ctx.Routing_intf.id in
  let n = neighbor_for t hello.h_origin in
  n.expiry <- now t +. neighbor_hold;
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
      n.sym <- false);
  n.two_hop <-
    List.filter_map
      (fun (id, sym, _) -> if sym && id <> me then Some id else None)
      hello.h_links;
  t.route_dirty <- true

(* [dest]'s slot in [entry], or [entry.count] when it holds none *)
let rec slot_of entry dest i =
  if i = entry.count || entry.dests.(i) = dest then i
  else slot_of entry dest (i + 1)

(* Merge a new TC into its last hop's entry in place. Entries expired by
   now are dropped first: [recompute_routes] would skip them, so a purge
   cannot move a route, and the set stays as small as what is live plus
   what expired since that last hop's previous TC. Then each advertised
   destination is refreshed if held and appended if not. *)
let merge_tc t tc =
  ensure_arrays t;
  let me = t.ctx.Routing_intf.id in
  let time = now t in
  let expiry = time +. topology_hold in
  let entry =
    let held = t.topology.(tc.t_origin) in
    if held != no_tc then held
    else begin
      let fresh = { dests = [||]; expiries = [||]; count = 0 } in
      t.topology.(tc.t_origin) <- fresh;
      fresh
    end
  in
  let live = ref 0 in
  for i = 0 to entry.count - 1 do
    if entry.expiries.(i) > time then begin
      entry.dests.(!live) <- entry.dests.(i);
      entry.expiries.(!live) <- entry.expiries.(i);
      incr live
    end
  done;
  entry.count <- !live;
  List.iter
    (fun dest ->
      if dest <> me then begin
        let i = slot_of entry dest 0 in
        if i = entry.count then begin
          if i = Array.length entry.dests then begin
            let cap = max 4 (2 * i) in
            let dests = Array.make cap 0 and expiries = Array.make cap 0.0 in
            Array.blit entry.dests 0 dests 0 i;
            Array.blit entry.expiries 0 expiries 0 i;
            entry.dests <- dests;
            entry.expiries <- expiries
          end;
          entry.dests.(i) <- dest;
          entry.count <- i + 1
        end;
        entry.expiries.(i) <- expiry
      end)
    tc.t_advertised

let handle_tc t ~from tc =
  let me = t.ctx.Routing_intf.id in
  if tc.t_origin = me then ()
  else if
    not (Seen_cache.witness t.seen_tc ~origin:tc.t_origin ~id:tc.t_ansn)
  then ()
  else begin
    merge_tc t tc;
    t.route_dirty <- true;
    (* MPR flooding: relay only if the sender selected us as MPR *)
    let relay =
      match Hashtbl.find_opt t.neighbors from with
      | Some n -> n.selected_us && n.sym && n.expiry > now t
      | None -> false
    in
    if relay then begin
      let size =
        tc_base_size + (per_entry_bytes * List.length tc.t_advertised)
      in
      let delay = Des.Rng.float t.ctx.Routing_intf.rng 0.01 in
      ignore
        (Des.Engine.schedule ~span:span_timer t.ctx.Routing_intf.engine ~delay (fun () ->
             t.ctx.Routing_intf.mac_send
               (Frame.with_kind
                  (Frame.make ~src:me ~dst:Frame.Broadcast ~size
                     ~payload:(Tc tc))
                  "tc")))
    end
  end

(* ------------------------------------------------------------------ *)
(* Data plane                                                          *)

let forward_data t data ~size =
  match next_hop t ~dst:data.Frame.final_dst with
  | None -> false
  | Some hop ->
      data.Frame.hops <- data.Frame.hops + 1;
      if data.Frame.hops > Routing_intf.data_ttl then begin
        t.ctx.Routing_intf.drop_data data ~reason:"ttl exceeded";
        true
      end
      else begin
        Trace.pkt_forward t.ctx.Routing_intf.trace ~node:t.ctx.Routing_intf.id
          ~flow:data.Frame.flow ~seq:data.Frame.seq ~next:hop;
        t.ctx.Routing_intf.mac_send
          (Frame.make ~src:t.ctx.Routing_intf.id ~dst:(Frame.Unicast hop)
             ~size:(size + Routing_intf.ip_overhead)
             ~payload:(Frame.Data data));
        true
      end

let handle_data t data ~size =
  if data.Frame.final_dst = t.ctx.Routing_intf.id then
    t.ctx.Routing_intf.deliver data
  else if forward_data t data ~size:(size - Routing_intf.ip_overhead) then ()
  else t.ctx.Routing_intf.drop_data data ~reason:"no route (proactive)"

let originate t data ~size =
  if data.Frame.final_dst = t.ctx.Routing_intf.id then
    t.ctx.Routing_intf.deliver data
  else if forward_data t data ~size then ()
  else t.ctx.Routing_intf.drop_data data ~reason:"no route (proactive)"

let receive t ~src frame =
  match frame.Frame.payload with
  | Hello hello -> handle_hello t hello
  | Tc tc -> handle_tc t ~from:src tc
  | Frame.Data data -> handle_data t data ~size:frame.Frame.size
  | _ -> ()

let rec schedule_hello t =
  ignore
    (Des.Engine.schedule ~span:span_timer t.ctx.Routing_intf.engine
       ~delay:(period t hello_interval)
       (fun () ->
         send_hello t;
         schedule_hello t))

let rec schedule_tc t =
  ignore
    (Des.Engine.schedule ~span:span_timer t.ctx.Routing_intf.engine
       ~delay:(period t tc_interval)
       (fun () ->
         send_tc t;
         schedule_tc t))

let create_full ctx =
  let t =
    {
      ctx;
      neighbors = Hashtbl.create 16;
      seen_tc = Seen_cache.create ctx.Routing_intf.engine ~ttl:30.0;
      mpr_set = [];
      ansn = 0;
      route_dirty = true;
      routes = [||];
      route_count = 0;
      topology = [||];
      ring = [||];
      mark = [||];
    }
  in
  (* desynchronise the very first beacons across nodes *)
  ignore
    (Des.Engine.schedule ~span:span_timer ctx.Routing_intf.engine
       ~delay:(Des.Rng.float ctx.Routing_intf.rng hello_interval)
       (fun () ->
         send_hello t;
         schedule_hello t));
  ignore
    (Des.Engine.schedule ~span:span_timer ctx.Routing_intf.engine
       ~delay:(Des.Rng.float ctx.Routing_intf.rng tc_interval)
       (fun () ->
         send_tc t;
         schedule_tc t));
  ( t,
    {
      Routing_intf.originate = originate t;
      receive = receive t;
      (* no link-layer integration: links die only by HELLO timeout *)
      unicast_failed = (fun ~frame:_ ~dst:_ -> ());
      unicast_ok = (fun ~frame:_ ~dst:_ -> ());
      gauges =
        (fun () ->
          (* last computed table; recomputing here would hide staleness *)
          {
            Routing_intf.no_gauges with
            Routing_intf.route_entries = t.route_count;
          });
    } )

let create ?config:(_ : config option) ctx = snd (create_full ctx)
