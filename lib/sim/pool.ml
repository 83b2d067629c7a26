exception Cell_error of { cell : string; exn : exn }

let () =
  Printexc.register_printer (function
    | Cell_error { cell; exn } ->
        Some (Printf.sprintf "cell %s failed: %s" cell (Printexc.to_string exn))
    | _ -> None)

let default_name i = Printf.sprintf "#%d" i

let map ?(name = default_name) ~jobs f items =
  let n = Array.length items in
  let jobs = Stdlib.max 1 (Stdlib.min jobs n) in
  (* first worker error, with the raw backtrace captured at the raise
     site: re-raising with it keeps the trace pointing into the cell's
     own code instead of at this pool *)
  let error : (int * exn * Printexc.raw_backtrace) option Atomic.t =
    Atomic.make None
  in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  (* work stealing over a shared counter: cell runtimes vary wildly
     across protocols and pause times, so static slicing would leave
     domains idle behind the slowest stripe. The calling domain is one of
     the workers, so [jobs = 1] spawns none. *)
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n && Atomic.get error = None then begin
      (match f items.(i) with
      | v -> results.(i) <- Some v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set error None (Some (i, e, bt))));
      worker ()
    end
  in
  let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join domains;
  (match Atomic.get error with
  | None -> ()
  | Some (i, e, bt) ->
      Printexc.raise_with_backtrace (Cell_error { cell = name i; exn = e }) bt);
  Array.map
    (function
      | Some v -> v
      | None -> invalid_arg "Pool.map: worker left a hole")
    results
