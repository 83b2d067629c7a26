module IntSet = Set.Make (Int)

type t = {
  labels : (module Label.S);
  dest : int;
  orders : Ordering.t array;
  adjacency : IntSet.t array;
  succs : (int * Ordering.t) list array;
}

(* the single destination sequence number every assigned ordering carries *)
let sn = 1

let create ~labels ~nodes ~dest =
  if nodes <= 0 then invalid_arg "Simple_net.create: need at least one node";
  if dest < 0 || dest >= nodes then invalid_arg "Simple_net.create: bad dest";
  let orders = Array.make nodes (Ordering.unassigned_of labels) in
  orders.(dest) <- Ordering.destination_of labels ~sn;
  {
    labels;
    dest;
    orders;
    adjacency = Array.make nodes IntSet.empty;
    succs = Array.make nodes [];
  }

let check_node t i name =
  if i < 0 || i >= Array.length t.orders then
    invalid_arg ("Simple_net: bad node in " ^ name)

let add_link t a b =
  check_node t a "add_link";
  check_node t b "add_link";
  if a = b then invalid_arg "Simple_net.add_link: self-link";
  t.adjacency.(a) <- IntSet.add b t.adjacency.(a);
  t.adjacency.(b) <- IntSet.add a t.adjacency.(b)

let linked t a b = IntSet.mem b t.adjacency.(a)

let label t i =
  check_node t i "label";
  t.orders.(i).Ordering.label

let successors t i =
  check_node t i "successors";
  t.succs.(i)

let has_route t i = i = t.dest || successors t i <> []

type outcome =
  | Routed of { replier : int; reply_path : int list }
  | No_route
  | Label_exhausted of int

(* Breadth-first flood carrying the running minimum ordering; [carried.(i)]
   is C_i, the minimum predecessor ordering as received. The requester's
   own entry keeps its initial unassigned ordering, its cache per §II.
   Returns the replier and the parent map of the flood tree. *)
let flood t ~src =
  let nodes = Array.length t.orders in
  let visited = Array.make nodes false in
  let parent = Array.make nodes (-1) in
  let carried = Array.make nodes (Ordering.unassigned_of t.labels) in
  visited.(src) <- true;
  let queue = Queue.create () in
  (* the requester places its current ordering in the request *)
  Queue.add (src, t.orders.(src)) queue;
  let replier = ref None in
  (try
     while not (Queue.is_empty queue) do
       let node, request = Queue.pop queue in
       let relayed = Ordering.min t.orders.(node) request in
       IntSet.iter
         (fun neighbour ->
           if not visited.(neighbour) then begin
             visited.(neighbour) <- true;
             parent.(neighbour) <- node;
             carried.(neighbour) <- relayed;
             if
               neighbour = t.dest
               || (Ordering.precedes relayed t.orders.(neighbour)
                  && t.succs.(neighbour) <> [])
             then begin
               replier := Some neighbour;
               raise Exit
             end
             else Queue.add (neighbour, relayed) queue
           end)
         t.adjacency.(node)
     done
   with Exit -> ());
  (!replier, parent, carried)

let request t ~src =
  check_node t src "request";
  if src = t.dest then Routed { replier = src; reply_path = [] }
  else begin
    match flood t ~src with
    | None, _, _ -> No_route
    | Some replier, parent, carried ->
        (* the reply retraces the flood tree back to the requester *)
        let rec walk node adv acc =
          if node = src then
            Routed { replier; reply_path = List.rev (node :: acc) }
          else
            let next = parent.(node) in
            match
              New_order.compute_with ~labels:t.labels
                ~current:t.orders.(next) ~cached:carried.(next) ~adv
            with
            | { New_order.case = Infinite; _ } -> Label_exhausted next
            | { order; _ } ->
                t.orders.(next) <- order;
                t.succs.(next) <-
                  New_order.filter_successors ~order
                    ((node, adv) :: List.remove_assoc node t.succs.(next));
                walk next order (node :: acc)
        in
        walk replier t.orders.(replier) []
  end

let seed_label t i label =
  check_node t i "seed_label";
  t.orders.(i) <- Ordering.v ~sn ~label

let break_link t a b =
  check_node t a "break_link";
  check_node t b "break_link";
  t.adjacency.(a) <- IntSet.remove b t.adjacency.(a);
  t.adjacency.(b) <- IntSet.remove a t.adjacency.(b);
  t.succs.(a) <- List.remove_assoc b t.succs.(a);
  t.succs.(b) <- List.remove_assoc a t.succs.(b)

let check_invariants t =
  let current (j, _) = (j, t.orders.(j)) in
  Dag.check_graph (Array.length t.orders) (fun i ->
      Some (t.orders.(i), List.map current t.succs.(i)))

let route_to_dest t ~src =
  let rec follow node acc steps =
    if node = t.dest then Some (List.rev (node :: acc))
    else if steps > Array.length t.orders then None
    else begin
      match t.succs.(node) with
      | [] -> None
      | first :: rest ->
          (* pick the least-labelled successor *)
          let best, _ =
            List.fold_left
              (fun (b, bo) (s, so) ->
                if Ordering.precedes bo so then (s, so) else (b, bo))
              first rest
          in
          follow best (node :: acc) (steps + 1)
    end
  in
  follow src [] 0
