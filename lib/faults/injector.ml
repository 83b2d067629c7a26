let span_fault = Obs.span "event.fault"

type t = {
  rng : Des.Rng.t;
  trace : Trace.t;
  on_crash : int -> unit;
  on_restart : int -> unit;
  (* down-counters rather than flags: overlapping events nest correctly *)
  node_down : int array;
  blocked_links : (int * int, int) Hashtbl.t;
  (* per node, the links down at it, counted as [blocked_links] counts
     them: a frame with an endpoint at zero needs no look-up *)
  links_down : int array;
  mutable active_partitions : (int * bool array) list;
  mutable active_bursts : (int * float) list;
  mutable events : int;
  mutable frames_blocked : int;
}

let link_key (a : int) b = if a < b then (a, b) else (b, a)

let count_link_down t la lb d =
  t.links_down.(la) <- t.links_down.(la) + d;
  t.links_down.(lb) <- t.links_down.(lb) + d

let trace_event t (ev : Spec.event) =
  if Trace.enabled t.trace then
    let kind, a, b =
      match ev with
      | Spec.Link_down { la; lb } -> ("link-down", la, lb)
      | Spec.Link_up { la; lb } -> ("link-up", la, lb)
      | Spec.Crash { node } -> ("crash", node, -1)
      | Spec.Restart { node } -> ("restart", node, -1)
      | Spec.Partition_start { id; _ } -> ("partition-start", id, -1)
      | Spec.Partition_heal { id } -> ("partition-heal", id, -1)
      | Spec.Burst_start { id; _ } -> ("burst-start", id, -1)
      | Spec.Burst_end { id } -> ("burst-end", id, -1)
    in
    Trace.fault t.trace ~kind ~a ~b

let apply t (ev : Spec.event) =
  trace_event t ev;
  match ev with
  | Spec.Link_down { la; lb } ->
      let key = link_key la lb in
      let n = Option.value ~default:0 (Hashtbl.find_opt t.blocked_links key) in
      Hashtbl.replace t.blocked_links key (n + 1);
      count_link_down t la lb 1;
      t.events <- t.events + 1
  | Spec.Link_up { la; lb } ->
      let key = link_key la lb in
      (match Hashtbl.find_opt t.blocked_links key with
      | Some n ->
          if n > 1 then Hashtbl.replace t.blocked_links key (n - 1)
          else Hashtbl.remove t.blocked_links key;
          count_link_down t la lb (-1)
      | None -> ());
      t.events <- t.events + 1
  | Spec.Crash { node } ->
      t.node_down.(node) <- t.node_down.(node) + 1;
      t.events <- t.events + 1;
      if t.node_down.(node) = 1 then t.on_crash node
  | Spec.Restart { node } ->
      if t.node_down.(node) > 0 then begin
        t.node_down.(node) <- t.node_down.(node) - 1;
        t.events <- t.events + 1;
        if t.node_down.(node) = 0 then t.on_restart node
      end
  | Spec.Partition_start { id; members } ->
      t.active_partitions <- (id, members) :: t.active_partitions;
      t.events <- t.events + 1
  | Spec.Partition_heal { id } ->
      t.active_partitions <-
        List.filter (fun (i, _) -> i <> id) t.active_partitions;
      t.events <- t.events + 1
  | Spec.Burst_start { id; drop_p } ->
      t.active_bursts <- (id, drop_p) :: t.active_bursts;
      t.events <- t.events + 1
  | Spec.Burst_end { id } ->
      t.active_bursts <- List.filter (fun (i, _) -> i <> id) t.active_bursts

let create ?(trace = Trace.null) engine ~nodes ~rng ~plan ~on_crash ~on_restart =
  let t =
    {
      rng;
      trace;
      on_crash;
      on_restart;
      node_down = Array.make nodes 0;
      blocked_links = Hashtbl.create 16;
      links_down = Array.make nodes 0;
      active_partitions = [];
      active_bursts = [];
      events = 0;
      frames_blocked = 0;
    }
  in
  let now = Des.Engine.now engine in
  List.iter
    (fun { Spec.at; ev } ->
      if at >= now then
        ignore
          (Des.Engine.schedule_at ~span:span_fault engine ~time:at (fun () ->
               apply t ev)))
    plan;
  t

let node_up t i = t.node_down.(i) = 0

let rec separated src dst = function
  | [] -> false
  | (_, members) :: rest ->
      members.(src) <> members.(dst) || separated src dst rest

(* draw once per burst so overlapping bursts compound *)
let rec burst_drops rng = function
  | [] -> false
  | (_, p) :: rest -> Des.Rng.float rng 1.0 < p || burst_drops rng rest

let blocked t ~src ~dst =
  t.node_down.(src) > 0
  || t.node_down.(dst) > 0
  || (t.links_down.(src) > 0
     && t.links_down.(dst) > 0
     && Hashtbl.mem t.blocked_links (link_key src dst))
  || separated src dst t.active_partitions

let frame_ok t ~src ~dst =
  if blocked t ~src ~dst then begin
    t.frames_blocked <- t.frames_blocked + 1;
    false
  end
  else if burst_drops t.rng t.active_bursts then begin
    t.frames_blocked <- t.frames_blocked + 1;
    false
  end
  else true

let event_count t = t.events

let frames_blocked t = t.frames_blocked
