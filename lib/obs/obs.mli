(** Deterministic observability: typed instruments and a structured trace
    sink (DESIGN.md §8).

    A registry holds three kinds of instrument — monotonic counters,
    gauges and quantile sketches — found by name (get-or-create), plus
    an optional trace sink that records timestamped structured events.
    Design goals, in order:

    - {e free when disabled}: counters and gauges requested from
      {!disabled} are fresh unregistered dummies, so a mutation is a
      single store into a record nobody else reads (for a counter, plus
      one branch that is never taken) — no allocation on the hot path,
      and no shared state that domains could race on.  Sketches and
      {!rtt} trackers from {!disabled} are one shared inert value each,
      which no operation ever writes;
    - {e deterministic when enabled}: time comes from an injected clock
      (the virtual [Engine.now] in simulation; the event-loop clock at
      the allowlisted [lib/net] boundary — never the wall clock
      directly), snapshot order is registration order, and all float
      rendering is fixed-format, so rendered output is bit-identical
      across [-j N] parallelism levels;
    - {e confined}: lint rule D8 keeps references to this module inside
      [lib/obs] and the allowlisted instrumentation boundaries.

    Instrument names are shared across nodes of a simulation: two nodes
    asking for counter ["basalt.rounds"] get handles onto the same
    registry total, so values are per-run aggregates, while each handle
    also keeps its own count ({!Counter.own}) for per-node stats; other
    instrument kinds are the shared cell itself.  A registry must
    therefore not be shared
    across concurrently running simulations; [lib/sim/runner.ml] creates
    one registry per run, inside the (possibly pooled) run itself. *)

type t
(** An instrument registry plus optional trace sink, or the no-op
    {!disabled} sink. *)

val disabled : t
(** [disabled] is the no-op sink: {!enabled} is [false], instruments
    requested from it are fresh dummies (sketches and {!rtt} trackers
    are one shared inert value each), {!trace} does nothing, and no call ever
    mutates shared state (safe to use from any domain). *)

val create : ?clock:(unit -> float) -> ?trace:bool -> unit -> t
(** [create ()] is a fresh enabled registry.  [clock] stamps trace
    events (default: constantly [0.]; see {!set_clock}); [trace]
    switches event recording on (default [false] — instruments only). *)

val enabled : t -> bool
(** [enabled t] is [false] exactly for {!disabled}. *)

val tracing : t -> bool
(** [tracing t] is [true] when [t] records trace events.  Call sites
    with per-event field allocation should guard on this. *)

val set_clock : t -> (unit -> float) -> unit
(** [set_clock t f] replaces the trace timestamp source, e.g. with
    [Engine.now] once the engine exists.  No-op on {!disabled}. *)

(** Monotonically increasing integer counters. *)
module Counter : sig
  type t
  (** A counter handle: its own count plus the registry total for its
      name, to which every increment is also added.  A registry cell,
      and a dummy from {!disabled}, is its own total. *)

  val incr : t -> unit
  (** [incr c] adds one to [c] and to its total: one store plus one
      never-taken branch on a disabled dummy. *)

  val add : t -> int -> unit
  (** [add c k] adds [k] to [c] and to its total (negative [k] is a
      programming error; not checked on the hot path). *)

  val value : t -> int
  (** [value c] is the registry-wide count for [c]'s name: the sum over
      every handle of that name ([own c] on a disabled dummy). *)

  val own : t -> int
  (** [own c] is the count added through this handle alone. *)
end

(** Last-value (or running-max) float gauges. *)
module Gauge : sig
  type t
  (** A gauge cell. *)

  val set : t -> float -> unit
  (** [set g x] overwrites the gauge with [x]. *)

  val set_max : t -> float -> unit
  (** [set_max g x] keeps the running maximum of observed values. *)

  val value : t -> float
  (** [value g] is the current value ([0.] if never set). *)
end

(** Log-bucketed quantile sketches (DDSketch-style), the one
    distribution type.

    Values map to fixed buckets [ceil (log_gamma x)] with
    [gamma = 1.04], so quantile estimates carry a bounded relative
    error (~2%) at a fixed memory footprint, independent of the number
    of observations.  Count, sum, minimum and maximum are exact. *)
module Sketch : sig
  type t
  (** A sketch cell. *)

  val make : unit -> t
  (** [make ()] is a fresh empty sketch (a fixed-size bucket array
      covering [1e-9 .. 1e15]; values at or below the low cutoff,
      zeros and negatives included, land in a dedicated cell that
      reads back as [0.]). *)

  val relative_error : float
  (** The worst-case relative error of {!quantile} for in-range
      values: [(gamma - 1) / (gamma + 1)]. *)

  val add : t -> float -> unit
  (** [add s x] records one observation: one logarithm for the bucket
      index.  On the sketch from {!disabled} it does nothing (one
      branch). *)

  val count : t -> int
  (** [count s] is the number of observations. *)

  val sum : t -> float
  (** [sum s] is the exact sum of observed values. *)

  val vmin : t -> float
  (** [vmin s] is the exact minimum observed value ([0.] when empty). *)

  val vmax : t -> float
  (** [vmax s] is the exact maximum observed value ([0.] when empty). *)

  val quantile : t -> float -> float
  (** [quantile s q] estimates the [q]-quantile within
      {!relative_error}, clamped into the observed [[vmin, vmax]]
      range.  [0.] when empty.
      @raise Invalid_argument if [q] is outside [[0, 1]]. *)

end

val counter : t -> string -> Counter.t
(** [counter t name] gets or creates the registry total for [name] and
    returns a fresh handle onto it.  On {!disabled}, a fresh
    unregistered dummy.  @raise Invalid_argument
    if [name] already names a non-counter instrument. *)

val gauge : t -> string -> Gauge.t
(** [gauge t name] gets or creates the gauge [name] (dummy on
    {!disabled}).  @raise Invalid_argument on an instrument-kind
    clash. *)

val sketch : t -> string -> Sketch.t
(** [sketch t name] gets or creates the quantile sketch [name].  On
    {!disabled}, the one shared inert sketch (the same value for every
    call, never written).  @raise Invalid_argument on an
    instrument-kind clash. *)

(** {1 Trace events} *)

type value = Int of int | Float of float | Str of string
(** A structured field value. *)

type event = { time : float; name : string; fields : (string * value) list }
(** One trace event: clock stamp, event name, ordered fields. *)

val trace : t -> name:string -> (string * value) list -> unit
(** [trace t ~name fields] appends an event stamped with the registry
    clock.  No-op unless {!tracing}; guard callers that allocate
    [fields] with [if Obs.tracing t then ...]. *)

(** {1 Spans}

    A span is a scoped region of virtual time.  {!span} opens it,
    {!span_end} closes it and emits a single trace event carrying the
    span's causal id ([sid]), start time ([t0]) and duration ([dur])
    alongside the fields given at either end.  Ids come from a
    per-registry counter allocated in open order; since each run owns
    its registry and opens spans in a deterministic order, ids are
    bit-identical across [-j N] (DESIGN.md §8).  An unfinished span
    emits nothing. *)

type span
(** An open span handle (or the no-op {!no_span}). *)

val no_span : span
(** The span that never emits — what {!span} returns when tracing is
    off, so handles can be stored unconditionally. *)

val span : t -> name:string -> (string * value) list -> span
(** [span t ~name fields] opens a span stamped with the current clock.
    Returns {!no_span} unless {!tracing}, making the disabled cost one
    branch. *)

val span_end : ?fields:(string * value) list -> t -> span -> unit
(** [span_end t sp] closes [sp], emitting one event named after the
    span with fields [sid], [t0], [dur], then the open-time fields,
    then [fields].  No-op on {!no_span}. *)

type rtt
(** A request/response round-trip tracker: one pending table per
    protocol instance, one shared RTT sketch per registry.  Built for
    the samplers' pull exchanges (DESIGN.md §8). *)

val rtt : t -> name:string -> rtt
(** [rtt t ~name] makes a tracker whose completed round trips feed the
    quantile sketch [name ^ "_rtt"] and, under tracing, emit spans
    named [name] with [node]/[peer] fields.  On {!disabled}, one
    shared inert tracker (the same value for every call, allocated
    once): its operations reduce to one branch and never write it, so
    it is safe to share across nodes and domains. *)

val rtt_start : rtt -> node:int -> peer:int -> unit
(** [rtt_start r ~node ~peer] records that [node] sent [peer] a
    request now.  A second start to the same peer supersedes the first
    (the superseded span emits nothing, like a lost request). *)

val rtt_finish : rtt -> peer:int -> unit
(** [rtt_finish r ~peer] completes the pending round trip to [peer],
    if any: observes [now - start] into the sketch and closes the
    span.  No-op when no request to [peer] is pending. *)

val rtt_abandon : rtt -> peer:int -> unit
(** [rtt_abandon r ~peer] forgets the pending round trip to [peer], if
    any, without observing it: the caller has given up on the request
    (retries exhausted, peer evicted).  Like a superseded request, the
    abandoned span emits nothing.  Without it, a request that is never
    answered stays pending for the tracker's lifetime. *)

val rtt_pending : rtt -> int
(** [rtt_pending r] is the number of round trips started and neither
    finished nor abandoned ([0] on {!disabled}). *)

(** {1 Rendering}

    All float formatting is fixed ([%.12g]) so identical runs render
    byte-identical output regardless of parallelism. *)

val float_string : float -> string
(** [float_string x] renders [x] in the fixed format of every float this
    module writes ([%.12g], with [".0"] appended when that shows neither
    a point nor an exponent), so the same float always renders the same
    bytes and reads back as a float, never an int. *)

val escape_json : string -> string
(** [escape_json s] escapes [s] for a JSON string literal: quote,
    backslash, newline, tab and carriage return by name, other control
    characters as [\u00XX]. *)

(* lint: allow D12 — test seam: renders one hand-built event, as the
   JSON round-trip property and test_trace's synthetic traces need;
   programs render whole registries with events_to_jsonl. *)
val event_to_json : ?extra:(string * value) list -> event -> string
(** [event_to_json e] is a single-line JSON object
    [{"t":<time>,"ev":<name>,...fields}].  [extra] fields are
    interleaved right after ["ev"] (used to tag merged streams, e.g.
    with the protocol name). *)

val events_to_jsonl : ?extra:(string * value) list -> t -> string
(** [events_to_jsonl t] is one {!event_to_json} line per event,
    oldest first, each ["\n"]-terminated. *)

val event_of_json : string -> event option
(** [event_of_json line] parses a line produced by {!event_to_json}
    (the subset of JSON this module emits — flat objects of numbers
    and strings).  [None] on malformed input or missing ["t"]/["ev"]
    keys; extra fields (e.g. the [?extra] tags) are returned as
    ordinary event fields. *)

val snapshot : t -> (string * float) list
(** [snapshot t] is every counter (as float) and gauge, in
    registration order — the stable order that makes reports
    bit-identical across [-j N].  Sketches are excluded; {!render} and
    {!render_prometheus} show them. *)

val render : t -> string
(** [render t] is a human-readable dump of every instrument (the
    SIGUSR1 output of [bin/basalt_node]); sketches carry count and sum,
    plus p50/p90/p99 and the exact max when non-empty. *)

val render_prometheus : t -> string
(** [render_prometheus t] renders every instrument in Prometheus text
    exposition format (version 0.0.4): counters and gauges as-is,
    sketches as summaries with [quantile="0.5"|"0.9"|"0.99"] lines
    plus [_sum]/[_count].  Instrument names are sanitized to [[a-zA-Z0-9_:]].  Served
    by [bin/basalt_node --metrics-addr]. *)
