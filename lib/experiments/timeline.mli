(** Free-form single-run time series.

    Runs one scenario with user-chosen parameters and prints the full
    measurement series (plus graph metrics on demand) — the generic tool
    behind "plot what Fig. 4 plots, but for my configuration". *)

type spec = {
  protocol : string;  (** "basalt" | "brahms" | "sps" | "classic". *)
  n : int;
  f : float;
  force : float;
  v : int;
  rho : float;
  steps : float;
  seed : int;
  graph_metrics : bool;
}

val spec :
  ?protocol:string ->
  ?n:int ->
  ?f:float ->
  ?force:float ->
  ?v:int ->
  ?rho:float ->
  ?steps:float ->
  ?seed:int ->
  ?graph_metrics:bool ->
  unit ->
  (spec, string) result
(** Defaults: basalt, n = 1000, f = 0.1, F = 10, v = 100, rho = 1,
    200 steps, seed 42, no graph metrics.  Errors on an unknown protocol
    name ({!Basalt_sim.Scenario.protocol_of_name}) and on any value the
    protocol's config or {!Basalt_sim.Scenario.make} rejects (such as
    [v = 0], [n = 0] or [f = 2]), with the constructor's message. *)

(* lint: allow D12 — test seam: the runner result behind print's
   table, which the test checks for a recorded series. *)
val run : ?obs:bool -> ?trace:bool -> spec -> Basalt_sim.Runner.result
(** [run spec] executes the timeline scenario and returns the runner's
    result; [obs]/[trace] are forwarded to {!Basalt_sim.Runner.run}. *)

val print : ?csv:string -> ?trace:string -> spec -> unit
(** [print spec] runs the scenario and prints the per-phase timeline;
    [csv] also writes a CSV file.  [trace] enables the observability
    sink — the table then carries one column per instrument — and writes
    the event stream as JSONL to the given path. *)
