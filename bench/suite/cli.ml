(* Command line of bench/suite/run.exe. Parsing is pure so the tests can
   drive it; run.ml prints [usage] and exits 2 on [Error]. *)

type pass = Untraced | Traced

type t = {
  workloads : Workloads.t list;  (** in command-line order; all by default *)
  seed : int;
  seconds : float;
      (** the expected length of one workload's run; a run still going
          after [cap_factor] times this fails *)
  repeats : int;  (** how many times each workload's worlds are run *)
  traced : bool;  (** also run the traced pass, on world 0 *)
  smoke : bool;  (** tiny horizons and one world, for tests *)
  json : string option;
  child : pass option;  (** internal: run one world and print its sample *)
}

let cap_factor = 5.0

let usage =
  Printf.sprintf
    "usage: run.exe [--workload NAME]... [--seed N] [--seconds S] \
     [--repeats N] [--trace 0|1] [--json PATH] [--smoke]\n\
     workloads: %s"
    (String.concat ", " Workloads.names)

let default =
  {
    workloads = [];
    seed = 1;
    seconds = 25.0;
    repeats = 1;
    traced = false;
    smoke = false;
    json = None;
    child = None;
  }

let parse args =
  let int flag v k =
    match int_of_string_opt v with
    | Some n when n >= 0 -> k n
    | _ -> Error (Printf.sprintf "%s: expected a non-negative integer, got %S" flag v)
  in
  let rec go o = function
    | [] ->
        Ok
          {
            o with
            workloads =
              (if o.workloads = [] then Workloads.all else List.rev o.workloads);
          }
    | "--workload" :: name :: rest -> (
        match Workloads.find name with
        | Some w -> go { o with workloads = w :: o.workloads } rest
        | None ->
            Error
              (Printf.sprintf "unknown workload %S (expected one of: %s)" name
                 (String.concat ", " Workloads.names)))
    | "--seed" :: v :: rest -> int "--seed" v (fun seed -> go { o with seed } rest)
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> go { o with seconds = s } rest
        | _ -> Error (Printf.sprintf "--seconds: expected a positive number, got %S" v))
    | "--repeats" :: v :: rest ->
        int "--repeats" v (fun n ->
            if n = 0 then Error "--repeats: must be at least 1"
            else go { o with repeats = n } rest)
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with traced = v = "1" } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | "--json" :: path :: rest -> go { o with json = Some path } rest
    | "--child" :: "untraced" :: rest -> go { o with child = Some Untraced } rest
    | "--child" :: "traced" :: rest -> go { o with child = Some Traced } rest
    | flag :: _ -> Error (Printf.sprintf "unrecognised argument %S" flag)
  in
  go default args

(* the argument vector that runs world [world_seed] of [w] in a child *)
let child_args o (w : Workloads.t) pass ~world_seed =
  [ "--child"; (match pass with Untraced -> "untraced" | Traced -> "traced");
    "--workload"; w.name; "--seed"; string_of_int world_seed ]
  @ if o.smoke then [ "--smoke" ] else []

(* How many worlds one repeat of [w] measures. The traced pass reports
   only per-layer metrics, which have no bound, so it runs world 0 alone
   and costs a run about twice one world rather than twice the batch. *)
let worlds o (w : Workloads.t) = if o.smoke || o.traced then 1 else w.worlds
