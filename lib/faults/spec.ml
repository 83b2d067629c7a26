type event =
  | Link_down of { la : int; lb : int }
  | Link_up of { la : int; lb : int }
  | Crash of { node : int }
  | Restart of { node : int }
  | Partition_start of { id : int; members : bool array }
  | Partition_heal of { id : int }
  | Burst_start of { id : int; drop_p : float }
  | Burst_end of { id : int }

type timed = { at : float; ev : event }

type t = {
  flap_rate : float;
  flap_down_mean : float;
  crashes : int;
  crash_down_mean : float;
  partitions : int;
  partition_mean : float;
  burst_rate : float;
  burst_mean : float;
  burst_drop_p : float;
  extra : timed list;
}

let none =
  {
    flap_rate = 0.0;
    flap_down_mean = 2.0;
    crashes = 0;
    crash_down_mean = 15.0;
    partitions = 0;
    partition_mean = 10.0;
    burst_rate = 0.0;
    burst_mean = 1.0;
    burst_drop_p = 0.5;
    extra = [];
  }

let is_none t =
  t.flap_rate <= 0.0 && t.crashes = 0 && t.partitions = 0
  && t.burst_rate <= 0.0 && t.extra = []

let default =
  {
    none with
    flap_rate = 0.5;
    flap_down_mean = 2.0;
    crashes = 2;
    crash_down_mean = 15.0;
    burst_rate = 0.05;
    burst_mean = 1.0;
    burst_drop_p = 0.5;
  }

let compare_timed a b =
  match Float.compare a.at b.at with 0 -> compare a.ev b.ev | c -> c

(* Poisson process: exponential inter-arrival times at [rate] per second.
   [make at] emits the paired down/up (or start/end) events for one
   occurrence. *)
let poisson_events ~rng ~rate ~from_time ~until ~make =
  if rate <= 0.0 then []
  else begin
    let events = ref [] in
    let time = ref (from_time +. Des.Rng.exponential rng ~mean:(1.0 /. rate)) in
    while !time < until do
      events := List.rev_append (make !time) !events;
      time := !time +. Des.Rng.exponential rng ~mean:(1.0 /. rate)
    done;
    !events
  end

(* Hold the first second quiet so agents exist, and stop injecting close
   to the end of the run where recovery could never be observed. *)
let horizon duration = Stdlib.max 0.0 (duration -. (0.1 *. duration))

let plan t ~rng ~nodes ~duration =
  if nodes < 2 then []
  else begin
    let until = horizon duration in
    let flap_rng = Des.Rng.split rng "flaps" in
    let flaps =
      poisson_events ~rng:flap_rng ~rate:t.flap_rate ~from_time:1.0 ~until
        ~make:(fun at ->
          let a = Des.Rng.int flap_rng nodes in
          let b = (a + 1 + Des.Rng.int flap_rng (nodes - 1)) mod nodes in
          let down =
            Stdlib.max 0.05 (Des.Rng.exponential flap_rng ~mean:t.flap_down_mean)
          in
          [ { at; ev = Link_down { la = a; lb = b } };
            { at = at +. down; ev = Link_up { la = a; lb = b } } ])
    in
    let crash_rng = Des.Rng.split rng "crashes" in
    let crashes = ref [] in
    for _ = 1 to t.crashes do
      let node = Des.Rng.int crash_rng nodes in
      let at = Des.Rng.uniform crash_rng ~lo:1.0 ~hi:(Stdlib.max 1.0 until) in
      let down =
        Stdlib.max 1.0 (Des.Rng.exponential crash_rng ~mean:t.crash_down_mean)
      in
      crashes :=
        { at; ev = Crash { node } }
        :: { at = at +. down; ev = Restart { node } }
        :: !crashes
    done;
    let part_rng = Des.Rng.split rng "partitions" in
    let partitions = ref [] in
    for id = 1 to t.partitions do
      let members = Array.init nodes (fun _ -> Des.Rng.bool part_rng) in
      let at = Des.Rng.uniform part_rng ~lo:1.0 ~hi:(Stdlib.max 1.0 until) in
      let hold =
        Stdlib.max 0.5 (Des.Rng.exponential part_rng ~mean:t.partition_mean)
      in
      partitions :=
        { at; ev = Partition_start { id; members } }
        :: { at = at +. hold; ev = Partition_heal { id } }
        :: !partitions
    done;
    let burst_rng = Des.Rng.split rng "bursts" in
    let next_burst = ref 0 in
    let bursts =
      poisson_events ~rng:burst_rng ~rate:t.burst_rate ~from_time:1.0 ~until
        ~make:(fun at ->
          incr next_burst;
          let id = !next_burst in
          let hold =
            Stdlib.max 0.1 (Des.Rng.exponential burst_rng ~mean:t.burst_mean)
          in
          [ { at; ev = Burst_start { id; drop_p = t.burst_drop_p } };
            { at = at +. hold; ev = Burst_end { id } } ])
    in
    List.stable_sort compare_timed
      (t.extra @ flaps @ !crashes @ !partitions @ bursts)
  end

let pp ppf t =
  if is_none t then Format.pp_print_string ppf "no-faults"
  else
    Format.fprintf ppf
      "flap=%.3f/s(down %.1fs) crashes=%d partitions=%d burst=%.3f/s(p=%.2f) \
       extra=%d"
      t.flap_rate t.flap_down_mean t.crashes t.partitions t.burst_rate
      t.burst_drop_p (List.length t.extra)
