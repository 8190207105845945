(** Discrete-event message-passing simulation engine.

    The engine owns a virtual clock and an event queue.  Simulated nodes
    are integers in [\[0, n)]; each registers a message handler.  Sending
    a message enqueues its delivery after a latency drawn from the link
    model (unless the loss model drops it).  Timers ({!schedule},
    {!every}) drive periodic protocol rounds.

    Executions are fully deterministic: same seed, same schedule.  All
    randomness used by the engine itself (latency jitter, loss) comes from
    its own RNG sub-stream so that protocol-level randomness is not
    perturbed by transport-level draws. *)

type 'msg t
(** An engine whose messages have type ['msg]. *)

type stats = {
  sent : int;  (** Messages submitted to {!send}. *)
  delivered : int;  (** Messages handed to a registered handler. *)
  dropped : int;  (** Messages discarded by loss, partition or outage. *)
  ignored : int;
      (** Messages that arrived at a node with no registered handler (a
          crashed or never-spawned destination) — distinct from
          [delivered] so crashed-node traffic is not conflated with real
          deliveries. *)
  events : int;  (** Total events executed (deliveries + timers). *)
  dup : int;
      (** Extra deliveries injected by a fault plan's duplication rule;
          with duplication, [delivered] can exceed [sent]. *)
  reordered : int;
      (** Deliveries that received an extra reordering delay (counted per
          enqueued copy, so a duplicated message can count twice). *)
  partition_drops : int;
      (** The subset of [dropped] caused by a partition or outage window
          rather than by the loss model. *)
}

val create :
  ?latency:Link.Latency.t ->
  ?loss:Link.Loss.t ->
  ?fault:Fault.t ->
  ?obs:Basalt_obs.Obs.t ->
  ?kind_of:('msg -> string) ->
  rng:Basalt_prng.Rng.t ->
  n:int ->
  unit ->
  'msg t
(** [create ~rng ~n ()] builds an engine for [n] nodes.  [latency]
    defaults to {!Link.Latency.Zero} wrapped in a small epsilon so that a
    message sent during round [t] is handled before round [t+1]; [loss]
    defaults to {!Link.Loss.None}.  A {!Link.Loss.Gilbert_elliott}
    [loss] runs one chain per directed link, with or without a plan.

    [fault] (default: no plan) composes richer misbehaviour on top —
    a loss override, duplication, reordering, timed
    partitions and node outages (see {!Fault}).  Every fault decision for
    a directed link is drawn from that link's own PRNG stream, derived
    from the engine seed and the [(src, dst)] pair, so fault schedules
    are deterministic and independent across links (DESIGN.md §10).
    Passing a plan for which {!Fault.is_none} holds is equivalent to
    passing none at all, including PRNG consumption.

    [obs] (default {!Basalt_obs.Obs.disabled}) receives counters
    [engine.sent]/[engine.delivered]/[engine.dropped]/[engine.ignored]/
    [engine.timer_fires]/[engine.dup]/[engine.reordered]/
    [engine.partition_drops] ({!stats} reads this engine's own counts
    from these handles, so it stays per engine on a shared registry),
    and — when the sink is tracing — per-message
    [engine.send]/[engine.deliver]/[engine.drop]/[engine.ignore]/
    [engine.dup] events with [src], [dst] and [kind]
    fields, where [kind] is computed by [kind_of] (default: constantly
    ["msg"]); partition/outage drops carry an extra [cause] field.
    The virtual-time latency of every completed delivery feeds the
    [engine.flight_latency] quantile sketch, and under tracing each
    queued copy opens an [engine.flight] span at send time, closed at
    delivery with an [outcome] field ([deliver]/[ignore]) — dropped
    messages abandon their span, so only completed flights appear.
    Stamp trace events with virtual time by pointing the sink's clock at
    [now t]. *)

val now : 'msg t -> float
(** [now t] is the current virtual time. *)

val register : 'msg t -> int -> (from:int -> 'msg -> unit) -> unit
(** [register t node handler] installs [handler] for messages addressed to
    [node], replacing any previous handler.
    @raise Invalid_argument if [node] is out of range. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** [send t ~src ~dst msg] enqueues delivery of [msg] to [dst].  Messages
    to unregistered nodes are dropped on arrival and counted in the
    [ignored] statistic (the destination behaves as a crashed node). *)

val schedule : 'msg t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay].
    @raise Invalid_argument if [delay < 0]. *)

val every :
  'msg t -> ?phase:float -> interval:float -> (unit -> unit) -> unit
(** [every t ~phase ~interval f] runs [f] at times
    [phase, phase + interval, …] forever (events beyond the horizon of a
    {!run_until} call simply wait in the queue).  [phase] defaults to
    [interval]. @raise Invalid_argument if [interval <= 0]. *)

val run_until : 'msg t -> float -> unit
(** [run_until t horizon] executes all events with timestamp [<= horizon]
    and leaves the clock at [horizon]. *)

val stats : 'msg t -> stats
(** [stats t] returns the message/event counters so far. *)
