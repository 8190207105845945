(** Curve fitting for convergence quantification.

    Fig. 4's qualitative claim — "BASALT converges much more rapidly than
    Brahms" — becomes quantitative by fitting each time series with an
    exponential relaxation toward its plateau,

    [y(t) = y∞ + (y0 - y∞) · exp(-t / τ)],

    and comparing the fitted time constants τ.  The fit estimates [y∞]
    from the series tail and then performs an ordinary least-squares
    regression of [log |y(t) - y∞|] on [t]. *)

type exponential = {
  y0 : float;  (** Fitted initial value. *)
  y_inf : float;  (** Plateau (estimated from the tail). *)
  tau : float;  (** Time constant: time to close 63% of the gap. *)
  r_square : float;  (** Goodness of the log-linear fit. *)
}

val exponential_decay : (float * float) list -> exponential option
(** [exponential_decay series] fits the relaxation model.  The plateau is
    the mean of the last quarter of the points.
    Returns [None] when the series is too short (< 4 points) or the gap
    to the plateau is numerically negligible. *)

val half_life : exponential -> float
(** [half_life fit] is [tau · ln 2]: time to close half the gap. *)
