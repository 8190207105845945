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

type select_strategy =
  | Uniform_slot  (** Pick a uniformly random slot (Alg. 1, selectPeer). *)
  | Rotating_slot
      (** Cycle deterministically through slots, balancing outgoing
          exchanges across the view (an extension; see DESIGN.md §4). *)
  | Least_used_slot
      (** Pick the filled slot whose peer has served the fewest exchanges
          since its seed was last reset (per-slot hit counters, as in the
          authors' production implementation) — spreads load and reduces
          the information an adversary gains from being selected often. *)

type t = private {
  v : int;
  tau : float;
  rho : float;
  k : int;
  backend : Basalt_hashing.Rank.backend;
      (** Rank function family (see {!Basalt_hashing.Rank.backend}):
          [Cheap] (default) for trusted-simulation speed, [Keyed_cheap]
          when modelled adversaries must not predict ranks but
          cryptographic strength is unnecessary, [Siphash] — whose seeds
          precompute a resumable midstate, so the gap to the mixers is
          ~3x per evaluation rather than ~50x — for deployment-grade
          unpredictability, [Prefix_diverse] for the §6 institutional
          hardening. *)
  select : select_strategy;
  evict_after_rounds : int option;
      (** Dead-peer eviction (an extension the paper's crash-free model
          does not need, but real deployments do): when a pulled peer has
          not answered within this many rounds, every slot holding it is
          reset so the search finds a live peer.  [None] (default)
          disables eviction. *)
  push_own_id_only : bool;
      (** Ablation of the §4.3 payload choice: when [true], pushes carry
          only the sender's identifier (Brahms's design choice) instead
          of the full view (Basalt's).  Default [false] — the paper's
          Basalt.  Expect slower discovery when enabled. *)
}

val make :
  ?v:int ->
  ?tau:float ->
  ?rho:float ->
  ?k:int ->
  ?backend:Basalt_hashing.Rank.backend ->
  ?select:select_strategy ->
  ?evict_after_rounds:int ->
  ?push_own_id_only:bool ->
  unit ->
  t
(** [make ()] is the paper's base configuration: [v = 160], [tau = 1],
    [rho = 1], [k = v/2], cheap rank backend, uniform slot selection.
    @raise Invalid_argument if [v <= 0], [k] not in [\[1, v\]],
    [tau <= 0] or [rho <= 0]. *)

val default : t
(** [default] is [make ()]. *)

val refresh_interval : t -> float
(** [refresh_interval c] is [k / rho], the period of the slot-reset
    task (Alg. 1 line 14). *)
