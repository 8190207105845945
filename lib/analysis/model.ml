type env = { n : int; f : float; v : int; tau : float; rho : float }

let env ?(n = 10_000) ?(f = 0.1) ?(v = 160) ?(tau = 1.0) ?(rho = 1.0) () =
  if n <= 0 then invalid_arg "Model.env: n must be positive";
  if f < 0.0 || f >= 1.0 then invalid_arg "Model.env: f out of [0,1)";
  if v <= 0 then invalid_arg "Model.env: v must be positive";
  if tau <= 0.0 then invalid_arg "Model.env: tau must be positive";
  if rho <= 0.0 then invalid_arg "Model.env: rho must be positive";
  { n; f; v; tau; rho }

let b_max e = e.f *. float_of_int e.n
let q e = (1.0 -. e.f) *. float_of_int e.n
let b_of_c e c = if e.f = 0.0 then 0.0 else b_max e /. (b_max e +. c)

(* Eq. (13): dc/dt = 2 C^2 v / tau * (1 - c / ((1-f) n)) - rho c / v. *)
let dc_dt e ~c =
  let v = float_of_int e.v in
  let cap = q e in
  let big_c = 1.0 -. b_of_c e c in
  (2.0 *. big_c *. big_c *. v /. e.tau *. (1.0 -. (c /. cap)))
  -. (e.rho *. c /. v)

(* Eq. (14): dB/dt = B(1-B)(rho/v - 2v(1-B)(B-f) / (tau f (1-f) n)). *)
let db_dt e ~b =
  if e.f = 0.0 then 0.0
  else begin
    let v = float_of_int e.v in
    let n = float_of_int e.n in
    b *. (1.0 -. b)
    *. ((e.rho /. v)
       -. (2.0 *. v *. (1.0 -. b) *. (b -. e.f)
          /. (e.tau *. e.f *. (1.0 -. e.f) *. n)))
  end

(* Eq. (16): B_{1,2} = (1 + f -/+ sqrt((1-f)^2 - 2 rho f (1-f) n / v^2)) / 2
   (with tau normalised to 1; the general case replaces rho by
   rho * tau). *)
let equilibria e =
  let v = float_of_int e.v in
  let n = float_of_int e.n in
  let rho = e.rho *. e.tau in
  let disc = ((1.0 -. e.f) ** 2.0) -. (2.0 *. rho *. e.f *. (1.0 -. e.f) *. n /. (v *. v)) in
  if disc < 0.0 then None
  else begin
    let root = sqrt disc in
    Some ((1.0 +. e.f -. root) /. 2.0, (1.0 +. e.f +. root) /. 2.0)
  end

let steady_state e = Option.map fst (equilibria e)

let trajectory e ~b0 ~t1 ~dt =
  Ode.solve ~f:(fun ~t:_ ~y -> db_dt e ~b:y) ~y0:b0 ~t0:0.0 ~t1 ~dt
