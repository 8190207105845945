(** Composable fault-injection plans for the simulation engine.

    A plan describes how the network misbehaves: a loss override applied
    to every link, message duplication and reordering, timed
    network partitions, and per-node crash/restart outage windows.
    {!Engine.create} takes a plan via [?fault]; all the randomness a
    plan consumes is drawn from a dedicated PRNG stream derived per
    directed link from the engine seed, so an execution under a fault
    plan is bit-identical at any [-j N] parallelism level and the
    traffic on one link never perturbs the fault schedule of another
    (DESIGN.md §10). *)

type link = {
  loss : Link.Loss.t option;
      (** Loss model override ([None] = the engine default; delays
          always follow the engine's latency model). *)
  dup : float;  (** Probability a delivered message is duplicated. *)
  reorder : float;
      (** Probability a message receives an extra delay (overtaking). *)
  reorder_window : float;
      (** Upper bound of the uniform extra delay used by [reorder]. *)
}

val link :
  ?loss:Link.Loss.t ->
  ?dup:float ->
  ?reorder:float ->
  ?reorder_window:float ->
  unit ->
  link
(** [link ()] is a transparent link behaviour; override pieces as needed.
    [dup] and [reorder] default to [0.], [reorder_window] to [1.].
    @raise Invalid_argument on probabilities outside [\[0,1\]] or a
    negative window. *)

type partition = {
  from_time : float;  (** Start of the cut (inclusive). *)
  until_time : float;  (** End of the cut (exclusive, the healing time). *)
  side : int -> bool;  (** Membership predicate for one side of the cut. *)
}

type outage = {
  node : int;  (** The affected node. *)
  from_time : float;  (** Crash time (inclusive). *)
  until_time : float;  (** Restart time (exclusive). *)
}

val partition :
  from_time:float -> until_time:float -> (int -> bool) -> partition
(** [partition ~from_time ~until_time side] cuts the network into
    [side]-vs-rest during [\[from_time, until_time)]: messages crossing
    the cut are dropped.  @raise Invalid_argument on a reversed window. *)

val outage : node:int -> from_time:float -> until_time:float -> outage
(** [outage ~node ~from_time ~until_time] silences [node] during the
    window: messages from or to it are dropped (a crash/restart with
    state retained — model state loss with {!Scenario}-level churn).
    @raise Invalid_argument on a reversed window. *)

type t = {
  base : link option;  (** Behaviour applied to every directed pair. *)
  partitions : partition list;  (** Timed cuts. *)
  outages : outage list;  (** Timed per-node silences. *)
}

val make :
  ?base:link ->
  ?partitions:partition list ->
  ?outages:outage list ->
  unit ->
  t
(** [make ()] is the transparent plan; compose faults by overriding
    pieces. *)

val is_none : t -> bool
(** [is_none t] is [true] when [t] cannot affect any message; the engine
    then uses its legacy single-stream path, so a [Some none] plan and no
    plan at all consume PRNG draws identically. *)

val partitioned : t -> time:float -> src:int -> dst:int -> bool
(** [partitioned t ~time ~src ~dst] is [true] when an active partition
    separates the pair at [time]. *)

val down : t -> time:float -> node:int -> bool
(** [down t ~time ~node] is [true] when an active outage silences
    [node] at [time]. *)
