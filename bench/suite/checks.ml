(* Output checks: what makes a run fail, and the pinned outcome digests
   (pins.json, compiled into the benchmark so it reads no file to find
   them). Pure, so the tests can hand [check] a pin list of their own. *)

module J = Trace.Json

(* {"<workload>": {"<seed>": ["<world 0>", "<world 1>", ...]}} *)
let parse_pins text =
  let strings = List.filter_map (function J.String d -> Some d | _ -> None) in
  match J.parse text with
  | Error e -> Error e
  | Ok (J.Obj workloads) ->
      Ok
        (List.concat_map
           (fun (w, seeds) ->
             match seeds with
             | J.Obj seeds ->
                 List.filter_map
                   (function
                     | seed, J.List ds -> Some ((w, seed), strings ds)
                     | _ -> None)
                   seeds
             | _ -> [])
           workloads)
  | Ok _ -> Error "expected an object"

let pins =
  lazy
    (match parse_pins Pins_data.text with
    | Ok pins -> pins
    | Error e -> failwith ("pins.json: " ^ e))

(* the digests pinned for [workload]'s worlds under [seed], if any *)
let pinned ~workload ~seed =
  Option.value
    (List.assoc_opt (workload, string_of_int seed) (Lazy.force pins))
    ~default:[]

type world = {
  index : int;  (** position in the workload's world list *)
  untraced : Probe.sample;
  traced : Probe.sample option;
}

type verdict = {
  attempted : int;  (** child runs *)
  failed : int;
  problems : string list;
}

(* Each run must pass its own invariants; a traced run and a repeat must
   reproduce the first untraced outcome of their world; and where a
   world's digest is pinned, a mismatch means the program's outputs
   changed, which fails every run of the workload. [missing] names the
   runs a time cap kept from starting; each counts as a failure. *)
let check ~pinned ?(missing = []) worlds =
  let first i =
    List.find_map
      (fun x -> if x.index = i && x.untraced.Probe.ok then Some x.untraced else None)
      worlds
  in
  let pin_problems =
    List.filter_map
      (fun x ->
        match List.nth_opt pinned x.index with
        | Some d when x.untraced.ok && x.untraced.digest <> d ->
            Some
              (Printf.sprintf "world %d: outcome digest %s, pinned %s" x.index
                 x.untraced.digest d)
        | _ -> None)
      worlds
  in
  let problem ~what ~(against : Probe.sample option) (s : Probe.sample) =
    match against with
    | _ when not s.ok -> Some (what ^ ": " ^ s.error)
    | Some r when s.digest <> r.digest ->
        Some
          (Printf.sprintf "%s: outcome digest %s differs from the first run's %s"
             what s.digest r.digest)
    | _ -> None
  in
  let runs =
    List.concat_map
      (fun x ->
        let what = Printf.sprintf "world %d" x.index in
        let against = first x.index in
        problem ~what ~against x.untraced
        :: Option.to_list
             (Option.map (problem ~what:(what ^ " traced") ~against) x.traced))
      worlds
    @ List.map Option.some missing
  in
  let attempted = List.length runs in
  let own = List.filter_map Fun.id runs in
  let problems = List.sort_uniq compare (pin_problems @ own) in
  {
    attempted;
    failed = (if pin_problems <> [] then attempted else List.length own);
    problems;
  }

let error_rate v = float_of_int v.failed /. float_of_int (max 1 v.attempted)

(* 0 when every check of every workload passed, 1 otherwise *)
let exit_code verdicts = if List.exists (fun v -> v.failed > 0) verdicts then 1 else 0
