type payload = ..

type data = {
  origin : int;
  final_dst : int;
  flow : int;
  seq : int;
  sent_at : float;
  mutable hops : int;
}

type payload += Data of data

type addr = Unicast of int | Broadcast

type cls = Data_frame | Control_frame

type t = {
  src : int;
  dst : addr;
  size : int;
  payload : payload;
  cls : cls;
  kind : string;
}

let make ~src ~dst ~size ~payload =
  if size <= 0 then invalid_arg "Frame.make: non-positive size";
  let cls =
    match payload with Data _ -> Data_frame | _ -> Control_frame
  in
  let kind =
    match cls with Data_frame -> "data" | Control_frame -> "ctl"
  in
  { src; dst; size; payload; cls; kind }

let with_kind t kind = { t with kind }

let with_cls t cls = { t with cls }

let is_data t = t.cls = Data_frame
