let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let m = mean xs in
    let sum_sq = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sum_sq /. float_of_int n
  end

let stddev xs = sqrt (variance xs)

let percentile xs p =
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p out of [0,1]";
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    let idx = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor idx) in
    let hi = min (n - 1) (lo + 1) in
    let frac = idx -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let median xs = percentile xs 0.5

let min_max xs =
  if Array.length xs = 0 then (Float.nan, Float.nan)
  else
    Array.fold_left
      (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
      (xs.(0), xs.(0)) xs

module Online = struct
  type t = { mutable count : int; mutable mean : float; mutable m2 : float }

  let create () = { count = 0; mean = 0.0; m2 = 0.0 }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = t.count
  let mean t = if t.count = 0 then Float.nan else t.mean

  let variance t =
    if t.count = 0 then Float.nan else t.m2 /. float_of_int t.count

  let stddev t = sqrt (variance t)
end
