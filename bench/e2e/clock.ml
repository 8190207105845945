(* The benchmark's only time sources: wall time from bechamel's
   monotonic clock, CPU time from [Unix.times]. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9

type cpu = { user : float; sys : float }

let cpu () =
  let t = Unix.times () in
  { user = t.Unix.tms_utime; sys = t.Unix.tms_stime }

let cpu_since c0 =
  let c1 = cpu () in
  { user = c1.user -. c0.user; sys = c1.sys -. c0.sys }
