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

let of_adjacency rows =
  let n = Array.length rows in
  { adj = Array.mapi (fun u row -> dedup_row n u row) rows }

let n g = Array.length g.adj
let out_neighbors g u = g.adj.(u)

let in_degrees g =
  let deg = Array.make (n g) 0 in
  Array.iter (fun row -> Array.iter (fun v -> deg.(v) <- deg.(v) + 1) row) g.adj;
  deg

let transpose g =
  let count = Array.make (n g) 0 in
  Array.iter (fun row -> Array.iter (fun v -> count.(v) <- count.(v) + 1) row) g.adj;
  let rev = Array.map (fun c -> Array.make c 0) count in
  let fill = Array.make (n g) 0 in
  Array.iteri
    (fun u row ->
      Array.iter
        (fun v ->
          rev.(v).(fill.(v)) <- u;
          fill.(v) <- fill.(v) + 1)
        row)
    g.adj;
  { adj = rev }

let edge_count g = Array.fold_left (fun acc row -> acc + Array.length row) 0 g.adj
let has_edge g u v = Array.exists (Int.equal v) g.adj.(u)

let undirected_neighbors g u =
  let rev = transpose g in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let add v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      out := v :: !out
    end
  in
  Array.iter add g.adj.(u);
  Array.iter add rev.adj.(u);
  Array.of_list (List.rev !out)
