(** Basalt algorithm parameters (paper Table 1).

    - [v]: view size (number of slots / ranking functions);
    - [tau]: exchange interval — one pull and one push every [tau];
    - [rho]: sampling rate — the service emits [rho] fresh samples per
      time unit on average;
    - [k]: replacement count — every [k/rho] time units, [k] slots are
      sampled and their seeds reset in round-robin order.

    The stability condition of §3.3.2 (Eq. 16) requires
    [(1 - f)^2 > 2 rho f (1 - f) n / v^2] for an equilibrium to exist;
    [Basalt_analysis.Model.equilibria] solves it for a given
    environment. *)

type t = private {
  v : int;
  tau : float;
  rho : float;
  k : int;
  backend : Basalt_hashing.Rank.backend;
      (** Rank function family (see {!Basalt_hashing.Rank.backend}):
          [Cheap] (default) for trusted-simulation speed, [Siphash] —
          whose seeds precompute a resumable midstate, so the gap to the
          mixer is ~3x per evaluation rather than ~50x — for
          deployment-grade unpredictability, [Prefix_diverse] for the §6
          institutional hardening. *)
  evict_after_rounds : int option;
      (** Dead-peer eviction (an extension the paper's crash-free model
          does not need, but real deployments do): when a pulled peer has
          not answered within this many rounds, every slot holding it is
          reset so the search finds a live peer.  [None] (default)
          disables eviction. *)
}

val make :
  ?v:int ->
  ?tau:float ->
  ?rho:float ->
  ?k:int ->
  ?backend:Basalt_hashing.Rank.backend ->
  ?evict_after_rounds:int ->
  unit ->
  t
(** [make ()] is the paper's base configuration: [v = 160], [tau = 1],
    [rho = 1], [k = v/2], cheap rank backend, no eviction.
    @raise Invalid_argument if [v <= 0], [k] not in [\[1, v\]], or
    [tau] or [rho] is not positive (NaN included). *)

val default : t
(** [default] is [make ()]. *)

val refresh_interval : t -> float
(** [refresh_interval c] is [k / rho], the period of the slot-reset
    task (Alg. 1 line 14). *)
