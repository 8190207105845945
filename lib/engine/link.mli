(** Network link models: delivery latency and message loss.

    The paper assumes a complete communication network with a weak form of
    synchrony (§2.1): some fraction of messages between correct nodes
    arrive within a bounded delay.  These models let experiments inject
    jittered latency and independent or bursty (non-adversarial) loss;
    adversarially-biased loss is instead modelled through the attack
    force [F] (§2.1, §4.1).  Richer behaviours — a loss override,
    duplication, reordering, timed partitions and crash/restart outages
    — compose on top of these primitives in {!Fault}. *)

module Latency : sig
  type t =
    | Zero  (** Instantaneous delivery (synchronous-round simulations). *)
    | Uniform of { lo : float; hi : float }
        (** Delay drawn uniformly in [\[lo, hi\]]. *)

  val sample : t -> Basalt_prng.Rng.t -> float
  (** [sample t rng] draws a one-way delay. *)

  val pp : Format.formatter -> t -> unit
  (** Formatter for latency models. *)

end

module Loss : sig
  type t =
    | None  (** Reliable channels (the paper's default assumption). *)
    | Bernoulli of float  (** Each message dropped independently with
                              the given probability. *)
    | Gilbert_elliott of {
        p_gb : float;  (** Per-message good→bad transition probability. *)
        p_bg : float;  (** Per-message bad→good transition probability. *)
        good : float;  (** Loss probability while in the good state. *)
        bad : float;  (** Loss probability while in the bad state. *)
      }
        (** Bursty loss: a two-state Gilbert–Elliott Markov chain advanced
            once per message.  The chain state lives in {!state}, one per
            directed link, so bursts on one link never perturb another. *)

  type state
  (** Per-link channel state ({!Gilbert_elliott} burst phase; stateless
      models ignore it). *)

  val initial : t -> state
  (** [initial t] is a fresh channel state (Gilbert–Elliott links start
      in the good state). *)

  val drops : t -> state -> Basalt_prng.Rng.t -> bool
  (** [drops t state rng] is [true] if the message should be discarded,
      advancing [state] for the stateful models. *)

  val mean_loss : t -> float
  (** [mean_loss t] is the long-run per-message drop probability (the
      stationary loss rate for {!Gilbert_elliott}). *)

  val pp : Format.formatter -> t -> unit
  (** Formatter for loss models. *)

end
