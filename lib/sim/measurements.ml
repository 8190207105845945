type point = {
  time : float;
  view_byz : float;
  sample_byz : float;
  isolated : float;
  clustering : float option;
  mean_path : float option;
  indegree_spread : float option;
  metrics : (string * float) list option;
}

type t = { mutable rev_points : point list; mutable count : int }

let create () = { rev_points = []; count = 0 }

let add t p =
  t.rev_points <- p :: t.rev_points;
  t.count <- t.count + 1

let points t = List.rev t.rev_points
let length t = t.count
let last t = match t.rev_points with [] -> None | p :: _ -> Some p

let convergence_time ?(metric = `Samples) ~optimal ~within t =
  let threshold = optimal *. (1.0 +. within) in
  let value p = match metric with `Samples -> p.sample_byz | `Views -> p.view_byz in
  (* Walk from the end backwards: find the suffix where the metric stays
     under the threshold, then report its first time. *)
  let rec scan earliest = function
    | [] -> earliest
    | p :: rest ->
        if value p <= threshold then scan (Some p.time) rest else earliest
  in
  scan None t.rev_points

