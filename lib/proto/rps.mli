(** The random peer sampling service interface.

    A random peer sampling (RPS) service produces a stream [(p_i)] of node
    identifiers drawn from the nodes present in the network (§2); a
    {e secure} RPS additionally bounds the over-representation of
    Byzantine identifiers in that stream.

    Every protocol in this repository (Basalt, Brahms, SPS, the classical
    non-tolerant baseline) exposes itself as a value of type {!t} so the
    simulation runner, the examples, and the application-facing API are
    protocol-agnostic.  The driver contract is:

    - [on_round] is invoked every exchange interval τ (Alg. 1 lines 7–9);
    - [on_message] is invoked on each message delivery;
    - [sample_tick] is invoked every k/ρ time units and returns the [k]
      fresh samples the service emits (Alg. 1 lines 14–19);
    - [current_view] exposes the node's neighbor set for measurement and
      for overlay-level applications (dissemination, consensus). *)

type send = dst:Node_id.t -> Message.t -> unit
(** Transport callback a sampler uses to emit messages. *)

type t = {
  protocol : string;  (** Human-readable protocol name. *)
  node : Node_id.t;  (** The local node's identifier. *)
  on_message : from:Node_id.t -> Message.t -> unit;
  on_round : unit -> unit;
  sample_tick : unit -> Node_id.t list;
  current_view : unit -> Node_id.t array;
}

type maker =
  id:Node_id.t ->
  bootstrap:Node_id.t array ->
  rng:Basalt_prng.Rng.t ->
  send:send ->
  t
(** A protocol is packaged as a function building one node's sampler. *)

val null : Node_id.t -> t
(** [null id] is a sampler that does nothing and emits nothing — a crashed
    node, useful in churn experiments and tests.  Its [current_view] is
    the empty array and [sample_tick] the empty list, permanently;
    layers built on top of a sampler (e.g. the [basalt.gossip]
    broadcast layer) must tolerate that shape — an empty view mutes
    dissemination but must not raise. *)
