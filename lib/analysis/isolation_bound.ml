let joining_isolation_probability ~env ~f0 ~bootstrap_size =
  let fn = Model.b_max env in
  if fn = 0.0 then 0.0
  else begin
    let c = (1.0 -. f0) *. float_of_int bootstrap_size in
    let b = 1.0 /. (1.0 +. (c /. fn)) in
    b ** float_of_int env.Model.v
  end

let reset_isolation_probability ~env ~k ~c =
  let fn = Model.b_max env in
  if fn = 0.0 then 0.0
  else begin
    let b = fn /. (fn +. c) in
    b ** float_of_int (env.Model.v - k)
  end

let delta_c_lower_bound ~env ~k ~c0 =
  let fn = Model.b_max env in
  let q = Model.q env in
  let v = float_of_int env.Model.v in
  let k = float_of_int k in
  let numerator = k *. v *. c0 *. (1.0 -. env.Model.f) *. (q -. c0) in
  let denominator =
    (q *. env.Model.tau *. env.Model.rho *. (fn +. c0))
    +. (k *. v *. c0 *. (1.0 -. env.Model.f))
  in
  numerator /. denominator

let safe_c_threshold ~env ~k ~target =
  let rec search lo hi =
    (* Invariant: prob(hi) < target <= prob(lo). *)
    if hi -. lo <= 1.0 then hi
    else begin
      let mid = (lo +. hi) /. 2.0 in
      if reset_isolation_probability ~env ~k ~c:mid < target then
        search lo mid
      else search mid hi
    end
  in
  if reset_isolation_probability ~env ~k ~c:0.0 < target then 0.0
  else search 0.0 (float_of_int env.Model.n *. 10.0)
