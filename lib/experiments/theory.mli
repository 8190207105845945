(** Section 3 theoretical results: the worked numbers and Eq. 16.

    Two parts:
    + the paper's worked examples — the joining-isolation bound of
      Eq. (7) ([B^v < 1e-10] with [v = 200], [I = fn/4], [f0 = 0.5]), the
      coupon-collector growth bound of Eq. (12) ([Δc ≥ 467] hence
      [c ≥ 592] at the next reset for the example system), and the safe
      threshold [c ≥ 585] making Eq. (8) drop below [1e-10];
    + the equilibria of Eq. (16) across view sizes.

    The model's stable point [B1] against the Byzantine view share that
    Monte-Carlo simulation measures is [scenarios/theory_model.scn]
    (its [model_B1] metric), run by [repro theory-model]. *)

type worked = {
  joining_bound : float;  (** Eq. (7) with the paper's example numbers. *)
  delta_c : float;  (** Eq. (12): expected new correct ids per reset. *)
  c_next : float;  (** [c0 + delta_c]; paper: ≥ 592. *)
  safe_c : float;  (** Smallest c with Eq. (8) < 1e-10; paper: 585. *)
}

val worked_examples : unit -> worked
(** [worked_examples ()] evaluates the bounds with the paper's example
    parameters (n = 10000, f = 0.1, and v = 200 / I = fn/4 / f0 = 0.5 for
    the joining bound; v = 100, k = 50, c0 = 125 for the growth bound). *)

type equilibrium_row = {
  v : int;
  b1 : float option;  (** Stable point of Eq. (16). *)
  b2 : float option;  (** Unstable point. *)
  predicted_excess : float option;  (** [B1 - f]. *)
}

(* lint: allow D12 — test seam: the typed equilibrium rows behind
   print's table, which the test orders (B1 < B2, B1 > f). *)
val equilibria : ?scale:Scale.t -> ?f:float -> unit -> equilibrium_row list
(** [equilibria ()] tabulates the fixed points of Eq. 16 across the
    preset's view sizes for Byzantine fraction [f]. *)

val print : ?scale:Scale.t -> unit -> unit
(** [print ()] prints the worked examples and the equilibrium table. *)
