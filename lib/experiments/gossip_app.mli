(** The broadcast experiment's gossip workload as a reusable driver.

    Mounts the epidemic broadcast layer (lib/gossip, DESIGN.md §11) on a
    {!Basalt_sim.Runner} run via its [?app] hook and publishes a
    deterministic plan of messages from rotating correct publishers.
    The declarative matrix driver (lib/scenario, DESIGN.md §12) runs
    it for every scenario file that mounts [(app (gossip ...))], such
    as [scenarios/broadcast.scn]. *)

type params = {
  publishes : int;  (** Messages published over the run. *)
  warmup_frac : float;
      (** Fraction of the run to wait before the first publish, so
          meshes exist. *)
  payload_bytes : int;  (** Payload size of each broadcast. *)
}

val params :
  ?publishes:int -> ?warmup_frac:float -> ?payload_bytes:int -> unit -> params
(** [params ()] is the broadcast experiment's plan: 10 publishes, 40%
    warmup, 32-byte payloads; override pieces as needed.
    @raise Invalid_argument on a non-positive count or size, or a
    warmup fraction outside [\[0, 1)]. *)

type summary = {
  delivered : float;  (** Fraction of (message, correct node) deliveries. *)
  t99 : float option;
      (** Median time for a message to reach 99% of correct nodes
          ([None] when a majority of messages never did). *)
  duplicates : int;  (** Redundant data frames received, run-wide. *)
  deliveries : int;  (** First-time deliveries, run-wide. *)
}

val run :
  ?params:params ->
  ?obs:bool ->
  ?trace:bool ->
  Basalt_sim.Scenario.t ->
  Basalt_sim.Runner.result * summary
(** [run s] executes the scenario with the gossip layer mounted on
    every correct node and returns the runner result plus the
    dissemination summary.  [obs] (default [false]) keeps the per-run
    instrument registry and [trace] (default [false]) also records the
    event trace, as in {!Basalt_sim.Runner.run}. *)
