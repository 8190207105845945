(** The test suites' property runner over QCheck2 (DESIGN.md §9).

    Properties are plain [QCheck2.Test.make] values; this module adds
    only what QCheck2 lacks.  Each property draws from a [Random.State]
    seeded by [(suite, name, BASALT_CHECK_SEED)], so a reported failure
    replays exactly.  [BASALT_CHECK_COUNT] raises a property's [count]
    and never lowers it; Alcotest's [-q] divides it by 10, with a floor
    of 10; [BASALT_CHECK_DIR] collects failure reports as files. *)

type failure = {
  suite : string;
  property : string;
  seed : int;  (** Base seed: the replay key. *)
  shrink_steps : int;
  counterexample : string;  (** The printed shrunk instance. *)
  reason : string;  (** ["returned false"] or the exception text. *)
}

val default_seed_value : int
(** The base seed when [BASALT_CHECK_SEED] is unset. *)

val default_seed : unit -> int
(** [BASALT_CHECK_SEED], or {!default_seed_value}. *)

val budget : ?quick:bool -> int -> int
(** [budget count] is the case budget of a property pinned at [count]:
    at least [BASALT_CHECK_COUNT], divided by 10 (floor 10) when [quick]
    (default: the test binary got [-q] or [--quick-tests]). *)

val run : ?seed:int -> suite:string -> QCheck2.Test.t -> (int, failure) result
(** [run ~suite t] runs [t] on its pinned stream ([seed] defaults to
    {!default_seed}); [Ok n] ran [n] cases.  A failure is also written
    to [BASALT_CHECK_DIR] when that names a directory. *)

val report : failure -> string
(** The multi-line report, ending with its replay line. *)

val suite : string -> QCheck2.Test.t list -> string * unit Alcotest.test_case list
(** [suite name tests] is an Alcotest suite running each test under
    [~suite:name]; a failure fails its case with {!report}. *)

val case : suite:string -> QCheck2.Test.t -> unit Alcotest.test_case
(** One test of a suite that also holds example-based cases. *)

val bytes_hex : bytes -> string
(** Length plus hex dump, e.g. ["7 bytes: b501020000..."]: the format
    of the wire corpus. *)

(** Generators for the repository's domain types. *)
module Gens : sig
  val node_id : max:int -> Basalt_proto.Node_id.t QCheck2.Gen.t
  (** Identifiers in [\[0, max\]]. *)

  val mid : ?max_id:int -> unit -> Basalt_proto.Message.mid QCheck2.Gen.t
  (** Broadcast message ids: a full-range u32 sequence number and an
      origin of at most [max_id] (default 2{^48} - 1). *)

  val message : ?max_ids:int -> unit -> Basalt_proto.Message.t QCheck2.Gen.t
  (** All nine wire kinds, with up to [max_ids] (default 40) 48-bit
      identifiers or message ids and [Gossip] payloads of up to 64
      bytes. *)

  val latency : Basalt_engine.Link.Latency.t QCheck2.Gen.t
  (** Any latency model with bounds in [\[0, 5\]]. *)

  val loss : Basalt_engine.Link.Loss.t QCheck2.Gen.t
  (** Reliable links or Bernoulli loss up to 0.9. *)

  type schedule = {
    nodes : int;
    registered : bool list;  (** Per node: does it get a handler? *)
    sends : (float * int * int) list;  (** [(time, src, dst)] timers. *)
    horizon : float;  (** Past every send and every delivery. *)
  }
  (** A random engine workload. *)

  val schedule : max_nodes:int -> max_sends:int -> schedule QCheck2.Gen.t
  (** Send times in [\[0, 100\]] and a horizon far beyond them. *)

  val obs_event : Basalt_obs.Obs.event QCheck2.Gen.t
  (** Trace events for JSON round trips: full-byte-range names, keys
      and strings (keys kept off ["t"]/["ev"]), and dyadic times and
      floats so the [%.12g] rendering is lossless; up to 8 fields. *)
end
