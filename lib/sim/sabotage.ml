type mode = Crash | Hang

type t = {
  mode : mode;
  protocol : Config.protocol;
  pause : float;
  trial : int;
  fails : int;
}

let of_string s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.split_on_char ':' s with
  | [ mode; proto; pause; trial ] -> (
      let mode =
        match String.lowercase_ascii mode with
        | "crash" -> Some Crash
        | "hang" -> Some Hang
        | _ -> None
      in
      let trial, fails =
        match String.index_opt trial '@' with
        | None -> (int_of_string_opt trial, Some max_int)
        | Some i ->
            ( int_of_string_opt (String.sub trial 0 i),
              int_of_string_opt
                (String.sub trial (i + 1) (String.length trial - i - 1)) )
      in
      match (mode, Config.protocol_of_name proto, float_of_string_opt pause,
             trial, fails)
      with
      | Some mode, Some protocol, Some pause, Some trial, Some fails
        when trial >= 0 && fails >= 1 ->
          Ok { mode; protocol; pause; trial; fails }
      | _ -> err "bad sabotage spec %S" s)
  | _ ->
      err "bad sabotage spec %S (expected MODE:PROTOCOL:PAUSE:TRIAL[@FAILS])" s

let arm spec ~protocol ~pause ~trial ~attempt ~deadline =
  match spec with
  | Some t
    when t.protocol = protocol && t.pause = pause && t.trial = trial
         && attempt <= t.fails -> (
      match t.mode with
      | Crash -> failwith "sabotage: injected crash"
      | Hang ->
          (* a wedged cell: burn wall-clock until the supervisor's
             deadline fires (or forever, when no timeout is armed) *)
          while true do
            Supervisor.check_deadline deadline;
            Unix.sleepf 0.002
          done)
  | _ -> ()
