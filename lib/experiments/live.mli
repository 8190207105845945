(** The §5 live-deployment measurement (simulated; see
    {!Basalt_avalanche.Deployment}).

    Reports the malicious proportion in a witness node's samples under an
    Eclipse attempt by ≈20% of the network, for the Basalt-derived
    sampler, a full-knowledge uniform sampler, and the ground truth.
    Paper numbers: 17.5% / 18.4% / 18.8%. *)

type row = {
  sampler : string;
  malicious_proportion : float;
  paper_value : float;  (** The value the paper reports. *)
}

(* lint: allow D12 — test seam: the typed rows and deployment result
   behind print's table, which the test bounds. *)
val run : ?scale:Scale.t -> unit -> row list * Basalt_avalanche.Deployment.result
(** [run ()] executes the live-deployment experiment, returning per-phase
    rows and the final deployment result. *)

val print : ?scale:Scale.t -> ?csv:string -> unit -> unit
(** [print ()] runs the experiment and prints the table; [csv] also writes a
    CSV file. *)
