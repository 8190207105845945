(** The paper's continuous-time model of Basalt (Section 3).

    The model tracks, for an average view slot of an average correct node,
    [c(t)] — the number of distinct correct identifiers seen since the
    slot's last reset — under the worst-case assumption that the adversary
    has flooded every correct node with all [b_max = f·n] Byzantine
    identifiers.  The probability that the slot currently holds a
    Byzantine identifier is then [B(t) = b_max / (b_max + c(t))]
    (Theorem 3.1 / Corollary 3.2).

    [c(t)] evolves by pull exchanges, push exchanges and slot resets,
    giving Eq. (13); substituting yields the autonomous equation (14) for
    [B(t)], whose stable equilibrium [B1] (Eq. 16) is the model's
    prediction for the steady-state proportion of Byzantine entries in
    views — the quantity Figure 2 measures. *)

type env = {
  n : int;  (** Total number of nodes. *)
  f : float;  (** Fraction of Byzantine nodes. *)
  v : int;  (** View size. *)
  tau : float;  (** Exchange interval. *)
  rho : float;  (** Sampling rate. *)
}

val env : ?n:int -> ?f:float -> ?v:int -> ?tau:float -> ?rho:float -> unit -> env
(** [env ()] is the paper's base scenario: [n = 10000], [f = 0.1],
    [v = 160], [tau = 1], [rho = 1].
    @raise Invalid_argument on non-positive sizes/rates or [f] outside
    [\[0, 1)]. *)

val b_max : env -> float
(** [b_max e] is [f * n], the number of Byzantine identifiers. *)

val q : env -> float
(** [q e] is [(1 - f) * n], the number of correct nodes. *)

(* lint: allow D12 — Eq. (13), the reference test_analysis checks
   steady_state against (dc/dt = 0 at B1). *)
val dc_dt : env -> c:float -> float
(** [dc_dt e ~c] is Eq. (13). *)

(* lint: allow D12 — Eq. (14), the reference test_analysis checks
   equilibria against (both roots zero it, with the paper's signs). *)
val db_dt : env -> b:float -> float
(** [db_dt e ~b] is Eq. (14). *)

val equilibria : env -> (float * float) option
(** [equilibria e] returns [(B1, B2)] from Eq. (16) — [B1] the stable and
    [B2] the unstable root — or [None] when the discriminant is negative
    (no steady state: the attack wins regardless of the initial
    condition). *)

val steady_state : env -> float option
(** [steady_state e] is the stable equilibrium [B1], if it exists. *)

val trajectory : env -> b0:float -> t1:float -> dt:float -> (float * float) list
(** [trajectory e ~b0 ~t1 ~dt] integrates Eq. (14) from [B(0) = b0] to
    time [t1] (RK4, step [dt]). *)
