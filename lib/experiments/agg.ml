(* Shared aggregation helpers for multi-seed experiment sweeps: the
   matrix driver (lib/scenario) and the experiment modules compute every
   mean, total and majority median through these. *)

let mean f xs =
  List.fold_left (fun acc x -> acc +. f x) 0.0 xs /. float_of_int (List.length xs)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let median_opt times =
  let converged = List.filter_map Fun.id times in
  (* Majority rule: report the median only when most runs produced a
     value; otherwise the cell is "did not converge". *)
  if 2 * List.length converged < List.length times + 1 then None
  else begin
    let sorted = List.sort Float.compare converged in
    Some (List.nth sorted (List.length sorted / 2))
  end
