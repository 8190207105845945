type link = {
  loss : Link.Loss.t option;
  dup : float;
  reorder : float;
  reorder_window : float;
}

let check_probability name p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Fault.link: %s must be in [0,1]" name)

let link ?loss ?(dup = 0.0) ?(reorder = 0.0) ?(reorder_window = 1.0) () =
  check_probability "dup" dup;
  check_probability "reorder" reorder;
  if reorder_window < 0.0 then
    invalid_arg "Fault.link: reorder_window must be >= 0";
  { loss; dup; reorder; reorder_window }

type partition = {
  from_time : float;
  until_time : float;
  side : int -> bool;
}

type outage = { node : int; from_time : float; until_time : float }

let check_window fname from_time until_time =
  if until_time < from_time then
    invalid_arg (fname ^ ": until_time must be >= from_time")

let partition ~from_time ~until_time side =
  check_window "Fault.partition" from_time until_time;
  { from_time; until_time; side }

let outage ~node ~from_time ~until_time =
  check_window "Fault.outage" from_time until_time;
  { node; from_time; until_time }

type t = {
  base : link option;
  partitions : partition list;
  outages : outage list;
}

let make ?base ?(partitions = []) ?(outages = []) () =
  { base; partitions; outages }


let is_none t =
  Option.is_none t.base
  && (match t.partitions with [] -> true | _ :: _ -> false)
  && (match t.outages with [] -> true | _ :: _ -> false)

let active ~time from_time until_time = time >= from_time && time < until_time

let partitioned t ~time ~src ~dst =
  List.exists
    (fun (p : partition) ->
      active ~time p.from_time p.until_time && p.side src <> p.side dst)
    t.partitions

let down t ~time ~node =
  List.exists
    (fun o -> o.node = node && active ~time o.from_time o.until_time)
    t.outages
