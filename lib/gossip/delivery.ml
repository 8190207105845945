module Message = Basalt_proto.Message
module Node_id = Basalt_proto.Node_id

type record = {
  mutable publish_time : float option;
  times : float option array;  (* per node, delivery instant *)
}

type t = {
  n : int;
  table : (int * int, record) Hashtbl.t;
  order : (int * int) Queue.t;  (* first-recorded order *)
  mutable dups : int;
}

let key (m : Message.mid) = (Node_id.to_int m.Message.origin, m.Message.seqno)

let create ~n () =
  if n < 1 then invalid_arg "Delivery.create: n < 1";
  { n; table = Hashtbl.create 64; order = Queue.create (); dups = 0 }

let record t mid =
  let k = key mid in
  match Hashtbl.find_opt t.table k with
  | Some r -> r
  | None ->
      let r = { publish_time = None; times = Array.make t.n None } in
      Hashtbl.replace t.table k r;
      Queue.push k t.order;
      r

let published t mid ~time = (record t mid).publish_time <- Some time

let delivered t mid ~node ~time =
  if node >= 0 && node < t.n then begin
    let r = record t mid in
    match r.times.(node) with
    | Some _ -> t.dups <- t.dups + 1
    | None -> r.times.(node) <- Some time
  end

let messages t = Queue.length t.order
let duplicate_deliveries t = t.dups

let fold t f acc =
  Queue.fold (fun acc k -> f acc (Hashtbl.find t.table k)) acc t.order

let fraction t =
  let delivered =
    fold t
      (fun d r ->
        Array.fold_left (fun d ti -> if Option.is_some ti then d + 1 else d) d
          r.times)
      0
  in
  let eligible = messages t * t.n in
  if eligible = 0 then 0.0 else float_of_int delivered /. float_of_int eligible

let time_to_fraction t ~frac r =
  match r.publish_time with
  | None -> None
  | Some t0 ->
      let latencies =
        Array.fold_left
          (fun acc ti ->
            match ti with Some ti -> (ti -. t0) :: acc | None -> acc)
          [] r.times
      in
      let need = int_of_float (Float.ceil (frac *. float_of_int t.n)) in
      let sorted = List.sort Float.compare latencies in
      if need = 0 then Some 0.0
      else if List.length sorted < need then None
      else Some (List.nth sorted (need - 1))

let median_time_to_fraction t ~frac =
  let times = fold t (fun acc r -> time_to_fraction t ~frac r :: acc) [] in
  let times = List.rev times in
  let reached = List.filter_map Fun.id times in
  if 2 * List.length reached < List.length times + 1 then None
  else begin
    let sorted = List.sort Float.compare reached in
    Some (List.nth sorted (List.length sorted / 2))
  end
