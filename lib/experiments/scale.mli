(** Experiment scale presets.

    The paper's evaluation runs at n = 10000 (n = 1000 for Fig. 3) with
    views up to 200 identifiers.  A faithful run of every figure at that
    scale takes hours of CPU; the presets trade network size for wall
    time while preserving the model's operating point (the Eq. 16
    discriminant stays well positive at each preset's [n]/[v]
    combination, so who-wins and crossover shapes are unchanged — see
    EXPERIMENTS.md for measured evidence).

    - {!Quick}: seconds per figure; used by the bench harness and smoke
      runs (n = 300, v = 40).
    - {!Standard}: minutes for the full suite; the default for
      [bin/repro] (n = 1000, v = 100 — the paper's own Fig. 3 scale).
    - {!Full}: the paper's headline scale (n = 10000, v = 160). *)

type t = Quick | Standard | Full

val of_string : string -> (t, string) Stdlib.result
(** [of_string s] parses ["quick"], ["standard"], or ["full"]. *)

val to_string : t -> string
(** Inverse of {!of_string}. *)

val n : t -> int
(** Base network size. *)

val v : t -> int
(** Base view size. *)

val steps : t -> float
(** Base run duration (time units). *)

val seeds : t -> int list
(** Seeds to average over. *)

val view_sizes : t -> int list
(** The x-axis of Fig. 2d / Fig. 5, adapted to [n]. *)

val byzantine_fractions : t -> float list
(** The x-axis of Fig. 2a / Fig. 3. *)

val forces : t -> float list
(** The x-axis of Fig. 2b. *)

val sybil_networks : t -> (int * float) list
(** The x-axis of the Sybil extension: for m in {1, 3, 8, 16}, honest
    nodes are 3n/4 of the preset and the attacker holds honest·m/8
    identifiers; each point is the network size and the attacker's
    identifier share f. *)

val sampling_rates : t -> float list
(** The x-axis of Fig. 2c / the ρ candidates of Fig. 5. *)
