(** Time series recorded during a run and derived statistics.

    One {!point} is appended per measurement instant.  All proportions are
    averages over correct nodes.  Graph metrics are present only when the
    scenario requested them (Fig. 4). *)

type point = {
  time : float;
  view_byz : float;  (** Mean Byzantine proportion in correct views. *)
  sample_byz : float;
      (** Mean Byzantine proportion in recent emitted samples. *)
  isolated : float;  (** Fraction of correct nodes currently isolated. *)
  clustering : float option;
  mean_path : float option;
  indegree_spread : float option;
  metrics : (string * float) list option;
      (** Instrument snapshot ({!Basalt_obs.Obs.snapshot}) at this
          instant, in registration order; present only when the run had
          an enabled observability sink.  Counters are cumulative, so
          per-interval rates are successive differences. *)
}

type t
(** A mutable series. *)

val create : unit -> t
(** [create ()] is an empty series. *)

val add : t -> point -> unit
(** [add t p] appends one point. *)

val points : t -> point list
(** Oldest first. *)

val length : t -> int
(** [length t] is the number of points recorded. *)

val last : t -> point option
(** [last t] is the newest point, if any. *)

val convergence_time :
  ?metric:[ `Samples | `Views ] -> optimal:float -> within:float -> t -> float option
(** [convergence_time ~optimal ~within series] is the earliest measurement
    time from which the chosen metric (default [`Samples]) remains at or
    below [optimal * (1 + within)] for the rest of the series — the
    definition behind Fig. 3 (convergence within 25% of the optimal
    proportion uses [within = 0.25]).  [None] if never. *)
