(** Priority queue of timestamped events.

    A binary min-heap ordered by [(time, sequence)]: events scheduled for
    the same instant are delivered in insertion order, which keeps
    simulation runs fully deterministic.  The heap is struct-of-arrays —
    unboxed times, sequence numbers and payloads in three parallel
    arrays — so {!push}, {!top_time} and {!take} allocate nothing but the
    occasional doubling of the arrays (and, across a module boundary, the
    box of the float {!top_time} returns). *)

type 'a t
(** A queue of events carrying values of type ['a]. *)

val create : filler:'a -> 'a t
(** [create ~filler] is an empty queue.  The queue's unused slots hold
    [filler] (the queue keeps it reachable), so a taken event is not
    retained. *)

val push : 'a t -> time:float -> 'a -> unit
(** [push q ~time v] schedules [v] at [time]. *)

val top_time : 'a t -> float
(** [top_time q] is the timestamp of the earliest event, which stays
    queued.  @raise Invalid_argument if [q] is empty. *)

val take : 'a t -> 'a
(** [take q] removes the earliest event and returns its value; read its
    time with {!top_time} first.  @raise Invalid_argument if [q] is
    empty. *)

val is_empty : 'a t -> bool
(** [is_empty q] is [true] when no event is pending. *)
