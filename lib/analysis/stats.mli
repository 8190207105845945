(** Descriptive statistics for experiment reporting.

    Plain helpers over float arrays plus an online (Welford) accumulator
    used when averaging across seeds or across nodes without materialising
    all values. *)

val mean : float array -> float
(** [mean xs] is the arithmetic mean; [nan] when empty. *)

val stddev : float array -> float
(** [stddev xs] is [sqrt (variance xs)]. *)

val percentile : float array -> float -> float
(** [percentile xs p] is the linearly interpolated [p]-quantile
    ([0 <= p <= 1]) of [xs]; [nan] when empty.  [xs] need not be
    sorted. @raise Invalid_argument if [p] is out of range. *)

val median : float array -> float
(** [median xs] is [percentile xs 0.5]. *)

val min_max : float array -> float * float
(** [min_max xs] is [(min, max)]; [(nan, nan)] when empty. *)

module Online : sig
  (** Welford's online mean/variance accumulator. *)

  type t

  val create : unit -> t
  (** [create ()] is an accumulator with no observations. *)

  val add : t -> float -> unit
  (** [add t x] folds one observation into the running moments. *)

  val count : t -> int
  (** [count t] is the number of observations so far. *)

  val mean : t -> float
  (** [mean t] is the running mean ([nan] when empty). *)

  val variance : t -> float
  (** [variance t] is the population variance ([nan] when empty). *)

  val stddev : t -> float
  (** [stddev t] is [sqrt (variance t)]. *)

end
