let rk4_step ~f ~t ~y ~dt =
  let k1 = f ~t ~y in
  let k2 = f ~t:(t +. (dt /. 2.0)) ~y:(y +. (dt *. k1 /. 2.0)) in
  let k3 = f ~t:(t +. (dt /. 2.0)) ~y:(y +. (dt *. k2 /. 2.0)) in
  let k4 = f ~t:(t +. dt) ~y:(y +. (dt *. k3)) in
  y +. (dt /. 6.0 *. (k1 +. (2.0 *. k2) +. (2.0 *. k3) +. k4))

let solve ~f ~y0 ~t0 ~t1 ~dt =
  if dt <= 0.0 then invalid_arg "Ode.solve: dt must be positive";
  if t1 < t0 then invalid_arg "Ode.solve: t1 < t0";
  let rec go t y acc =
    if t >= t1 then List.rev ((t, y) :: acc)
    else begin
      let step = Float.min dt (t1 -. t) in
      let y' = rk4_step ~f ~t ~y ~dt:step in
      go (t +. step) y' ((t, y) :: acc)
    end
  in
  go t0 y0 []
