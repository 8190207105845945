(** Numerical integration of ordinary differential equations.

    A classical fixed-step fourth-order Runge–Kutta integrator, used to
    solve the paper's continuous model (Eqs. 13–14) and compare its
    trajectory against Monte-Carlo simulations. *)

val solve :
  f:(t:float -> y:float -> float) ->
  y0:float ->
  t0:float ->
  t1:float ->
  dt:float ->
  (float * float) list
(** [solve ~f ~y0 ~t0 ~t1 ~dt] integrates from [(t0, y0)] to [t1],
    returning the trajectory including both endpoints.
    @raise Invalid_argument if [dt <= 0] or [t1 < t0]. *)
