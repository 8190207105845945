(** Figure 5: maximum achievable sampling rate ρ without isolation,
    vs view size [v].

    Paper setting: n = 10000, f = 10%, F = 10.  A run succeeds if, from
    half of the allotted time onward, no correct node is ever isolated;
    the figure plots the largest ρ with only successful runs for each
    [v].  Expected shape: Basalt sustains a higher ρ than Brahms at every
    view size (more utility for the same view). *)

(* lint: allow D12 — test seam: drives the stop-at-first-failure scan
   on a tiny scenario, which no preset of print runs. *)
val max_rho :
  make:(rho:float -> Basalt_sim.Scenario.t) ->
  seeds:int list ->
  float list ->
  float option
(** [max_rho ~make ~seeds rhos] tests the candidate rates in increasing
    order, one run per seed each, and returns the largest [rho] before
    the first failure, where a failure is any run observing an isolated
    correct node during the second half of the simulation.  Isolation
    risk grows with [rho], so the scan stops at the first failing rate;
    no seeds counts as a failure.  [None] if even the smallest fails. *)

val print :
  ?scale:Scale.t -> ?csv:string -> ?pool:Basalt_parallel.Pool.t -> unit -> unit
(** [print ()] runs the experiment and prints the table; [csv] also writes a
    CSV file. *)
