module Rng = Basalt_prng.Rng

let correct_vertices ~is_malicious g =
  let out = ref [] in
  for u = Digraph.n g - 1 downto 0 do
    if not (is_malicious u) then out := u :: !out
  done;
  Array.of_list !out

let sample_vertices rng vertices k =
  if Array.length vertices <= k then vertices
  else Rng.sample_without_replacement rng ~k vertices

(* Undirected adjacency sets, built once per snapshot. *)
let undirected_sets g =
  let n = Digraph.n g in
  let sets = Array.init n (fun _ -> Hashtbl.create 8) in
  for u = 0 to n - 1 do
    Array.iter
      (fun v ->
        Hashtbl.replace sets.(u) v ();
        Hashtbl.replace sets.(v) u ())
      (Digraph.out_neighbors g u)
  done;
  sets

let clustering_coefficient ~rng ~is_malicious g =
  let sets = undirected_sets g in
  let correct = correct_vertices ~is_malicious g in
  let picked = sample_vertices rng correct 400 in
  if Array.length picked = 0 then 0.0
  else begin
    let total = ref 0.0 in
    Array.iter
      (fun u ->
        let neighbors =
          Hashtbl.fold (fun v () acc -> v :: acc) sets.(u) []
        in
        let neighbors = Array.of_list neighbors in
        let d = Array.length neighbors in
        if d >= 2 then begin
          let connected = ref 0 in
          for i = 0 to d - 1 do
            for j = i + 1 to d - 1 do
              let a = neighbors.(i) and b = neighbors.(j) in
              (* Paper convention: malicious nodes are assumed to be all
                 connected to one another. *)
              if
                (is_malicious a && is_malicious b)
                || Hashtbl.mem sets.(a) b
              then incr connected
            done
          done;
          let pairs = d * (d - 1) / 2 in
          total := !total +. (float_of_int !connected /. float_of_int pairs)
        end)
      picked;
    !total /. float_of_int (Array.length picked)
  end

(* BFS over the correct-only directed subgraph; returns distances
   (-1 = unreached). *)
let bfs_correct ~is_malicious g source =
  let n = Digraph.n g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(source) <- 0;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun v ->
        if dist.(v) < 0 && not (is_malicious v) then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      (Digraph.out_neighbors g u)
  done;
  dist

let fold_bfs ~rng ~is_malicious g f init =
  let correct = correct_vertices ~is_malicious g in
  let picked =
    sample_vertices rng
      (Array.of_list
         (List.filter (fun u -> not (is_malicious u)) (Array.to_list correct)))
      64
  in
  Array.fold_left
    (fun acc source -> f acc (bfs_correct ~is_malicious g source) source)
    init picked

let mean_path_length ~rng ~is_malicious g =
  let total, count =
    fold_bfs ~rng ~is_malicious g
      (fun (total, count) dist source ->
        let t = ref total and c = ref count in
        Array.iteri
          (fun v d ->
            if d > 0 && v <> source then begin
              t := !t +. float_of_int d;
              c := !c + 1
            end)
          dist;
        (!t, !c))
      (0.0, 0)
  in
  if count = 0 then Float.nan else total /. float_of_int count

let indegrees_correct ~is_malicious g =
  let n = Digraph.n g in
  let deg = Array.make n 0 in
  for u = 0 to n - 1 do
    if not (is_malicious u) then
      Array.iter
        (fun v -> if not (is_malicious v) then deg.(v) <- deg.(v) + 1)
        (Digraph.out_neighbors g u)
  done;
  let out = ref [] in
  for u = n - 1 downto 0 do
    if not (is_malicious u) then out := deg.(u) :: !out
  done;
  Array.of_list !out

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else begin
    let idx = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor idx) in
    let hi = min (n - 1) (lo + 1) in
    let frac = idx -. float_of_int lo in
    (float_of_int sorted.(lo) *. (1.0 -. frac))
    +. (float_of_int sorted.(hi) *. frac)
  end

let indegree_decile_spread ~is_malicious g =
  let deg = indegrees_correct ~is_malicious g in
  Array.sort Int.compare deg;
  if Array.length deg = 0 then Float.nan
  else percentile deg 0.9 -. percentile deg 0.1
