(** Application-facing sample stream with a bounded history window.

    The RPS service produces a continuous stream [(p_i)] of identifiers;
    applications typically consume the most recent ones (e.g. an
    Avalanche-style consensus draws each query committee from fresh
    samples).  This module keeps the last [capacity] samples and
    provides the statistics the evaluation section measures (proportion
    of Byzantine identifiers among recent samples).

    Memory follows what the stream holds, not its window: a stream
    allocates no buffer until the first push, then doubles its buffer
    from 8 entries up to [capacity], and only a buffer of [capacity]
    entries wraps as a ring.  A simulated node that emits a few samples
    per run keeps a few words, not the whole window. *)

type t
(** A bounded sample history. *)

val create : capacity:int -> t
(** [create ~capacity] retains the last [capacity] samples.  It
    allocates no buffer: {!push_list} grows one on demand.
    @raise Invalid_argument if [capacity <= 0]. *)

val push_list : t -> Basalt_proto.Node_id.t list -> unit
(** [push_list t ids] appends samples in order, evicting the oldest
    once [capacity] samples are retained.  Doubles the buffer (at most
    to [capacity]) when it is full and smaller than [capacity]. *)

val total : t -> int
(** [total t] counts all samples ever pushed. *)

val retained : t -> int
(** [retained t] is the current window size, [<= capacity]. *)

val recent : t -> int -> Basalt_proto.Node_id.t list
(** [recent t n] is the most recent [min n (retained t)] samples, newest
    first. *)

val proportion : (Basalt_proto.Node_id.t -> bool) -> t -> float
(** [proportion p t] is the fraction of retained samples satisfying [p];
    [0.] when empty. *)

val iter : (Basalt_proto.Node_id.t -> unit) -> t -> unit
(** [iter f t] applies [f] to each retained sample, oldest first. *)

val draw : t -> Basalt_prng.Rng.t -> k:int -> Basalt_proto.Node_id.t array
(** [draw t rng ~k] picks [k] retained samples uniformly at random with
    replacement (committee selection helper). Returns [[||]] when
    empty. *)
