(** Parameter sweeps and multi-seed aggregation.

    The paper's figures vary one parameter at a time around the base
    scenario and average results over runs; these helpers drive
    {!Runner.run} accordingly.  Every driver takes an optional
    [?pool] ({!Basalt_parallel.Pool.t}): runs are independent seeded
    Monte-Carlo simulations, so they fan out over domains with
    bit-identical results (see DESIGN.md §7). *)

type aggregate = {
  mean_view_byz : float;
  mean_sample_byz : float;
  mean_isolated : float;
  isolation_runs : int;  (** Runs with at least one isolation after the
                             half-time mark. *)
  runs : int;
}

val run_seeds :
  ?pool:Basalt_parallel.Pool.t ->
  ?obs:bool ->
  ?trace:bool ->
  Scenario.t ->
  seeds:int list ->
  Runner.result list
(** [run_seeds s ~seeds] runs [s] once per seed, in seed order.
    [obs]/[trace] are forwarded to {!Runner.run}; each run gets its own
    registry, created inside the pooled task, so instrument values and
    traces are bit-identical at any parallelism level. *)

val aggregate : Runner.result list -> aggregate option
(** [aggregate results] averages final measurements across runs.
    [None] on the empty list — an empty result set is data ("no runs
    survived"), not a programming error, now that fan-out can lose tasks
    to failure. *)

val chunks : int -> 'a list -> 'a list list
(** [chunks k xs] splits [xs] into consecutive groups of exactly [k],
    preserving order — the regrouping step after a flat
    {!Basalt_parallel.Pool.map} over a condition × seed batch, shared
    by {!run_grouped} and the scenario-matrix driver.
    @raise Invalid_argument if [k <= 0] or [k] does not divide the
    length of [xs]. *)

val run_grouped :
  ?pool:Basalt_parallel.Pool.t ->
  Scenario.t list ->
  seeds:int list ->
  Runner.result list list
(** [run_grouped scenarios ~seeds] runs every scenario × seed pair as
    one flat task batch (maximising pool utilisation even with a single
    seed) and returns the runs regrouped per scenario, in order: result
    [i] lists [List.length seeds] runs of scenario [i] in seed order.
    @raise Invalid_argument if [seeds] is empty. *)

val run_aggregates :
  ?pool:Basalt_parallel.Pool.t ->
  Scenario.t list ->
  seeds:int list ->
  aggregate list
(** [run_aggregates scenarios ~seeds] is {!run_grouped} with each group
    aggregated.
    @raise Invalid_argument if [seeds] is empty. *)

val max_rho :
  ?pool:Basalt_parallel.Pool.t ->
  make:(rho:float -> Scenario.t) ->
  seeds:int list ->
  float list ->
  float option
(** [max_rho ~make ~seeds rhos] tests the candidate rates in increasing
    order and returns the largest [rho] before the first failure, where a
    failure is any run observing an isolated correct node during the
    second half of the simulation — the success criterion of Fig. 5.
    Isolation risk grows with [rho], so the scan stops at the first
    failing rate; an empty result set also counts as a failure.  [None]
    if even the smallest fails. *)
