type mark = White | Grey | Black

let acyclic ~successors n =
  let marks = Array.make n White in
  let exception Cycle of int list in
  let rec visit path i =
    match marks.(i) with
    | Black -> ()
    | Grey ->
        (* the path from the previous occurrence of [i] is a cycle *)
        let rec cut acc = function
          | [] -> acc
          | x :: rest -> if x = i then x :: acc else cut (x :: acc) rest
        in
        raise (Cycle (cut [ i ] path))
    | White ->
        marks.(i) <- Grey;
        List.iter (visit (i :: path)) (successors i);
        marks.(i) <- Black
  in
  try
    for i = 0 to n - 1 do
      visit [] i
    done;
    Ok ()
  with Cycle c -> Error c

let check_node ~node order succs =
  match List.find_opt (fun (_, o) -> not (Ordering.precedes order o)) succs with
  | None -> Ok ()
  | Some (s, o) ->
      Error
        (Format.asprintf "node %d holds successor %d out of order: %a not ⊑ %a"
           node s Ordering.pp order Ordering.pp o)

let check_graph n state =
  let ids = Array.make n [] in
  let rec nodes i =
    if i < n then
      match state i with
      | None -> nodes (i + 1)
      | Some (order, succs) -> (
          match check_node ~node:i order succs with
          | Error _ as e -> e
          | Ok () ->
              ids.(i) <- List.map fst succs;
              nodes (i + 1))
    else
      match acyclic ~successors:(Array.get ids) n with
      | Ok () -> Ok ()
      | Error cycle ->
          Error
            (Format.asprintf "successor cycle %a"
               (Format.pp_print_list
                  ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "->")
                  Format.pp_print_int)
               cycle)
  in
  nodes 0
