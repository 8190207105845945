let count p view =
  Array.fold_left (fun acc id -> if p id then acc + 1 else acc) 0 view

let proportion p view =
  let len = Array.length view in
  if len = 0 then 0.0 else float_of_int (count p view) /. float_of_int len

(* Up to this many ids, [distinct] scans its output so far instead of
   building a hash table: a view-sized input (Brahms deduplicates three
   per round) then allocates no table. *)
let distinct_scan_max = 48

let distinct_small (view : Node_id.t array) =
  let n = Array.length view in
  let out = Array.copy view in
  let len = ref 0 in
  for i = 0 to n - 1 do
    let id = Array.unsafe_get view i in
    let j = ref 0 in
    while
      !j < !len
      && not (Int.equal (Array.unsafe_get out !j :> int) (id :> int))
    do
      incr j
    done;
    if Int.equal !j !len then begin
      Array.unsafe_set out !len id;
      incr len
    end
  done;
  if Int.equal !len n then out else Array.sub out 0 !len

let distinct view =
  if Array.length view <= distinct_scan_max then distinct_small view
  else begin
    let seen = Hashtbl.create (Array.length view) in
    let out = ref [] in
    Array.iter
      (fun id ->
        let key = Node_id.to_int id in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          out := id :: !out
        end)
      view;
    Array.of_list (List.rev !out)
  end


let random_member rng view =
  if Array.length view = 0 then None
  else Some (Basalt_prng.Rng.pick rng view)

let random_subset rng ~k view =
  Basalt_prng.Rng.sample_without_replacement rng ~k view

