type t = { adj : int array array }

let dedup_row n u row =
  let seen = Hashtbl.create (Array.length row) in
  let out = ref [] in
  Array.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Digraph: vertex out of range";
      if v <> u && not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out := v :: !out
      end)
    row;
  Array.of_list (List.rev !out)

let of_views ~n view =
  let adj =
    Array.init n (fun u ->
        let row = Array.map Basalt_proto.Node_id.to_int (view u) in
        dedup_row n u row)
  in
  { adj }

let n g = Array.length g.adj
let out_neighbors g u = g.adj.(u)
