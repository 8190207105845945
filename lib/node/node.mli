(** One node: a sampler, an application layer and a sample stream.

    Alg. 1 drives a node through three entry points — a message handler,
    an exchange round every τ and a sampling tick every k/ρ
    ({!Basalt_proto.Rps}'s driver contract).  This module owns how an
    application layer (the [lib/gossip] broadcast layer, or nothing)
    composes with the sampler at each of them, so the simulation runner,
    the UDP daemon and the Avalanche networks wire a node the same way
    and only supply the transport and the timers. *)

type app = {
  app_deliver :
    from:Basalt_proto.Node_id.t -> Basalt_proto.Message.t -> bool;
      (** Inbound-frame filter, tried {e before} the sampler: return
          [true] to consume the frame (broadcast frames), [false] to
          let it fall through to the sampler. *)
  app_tick : Basalt_proto.Node_id.t list -> unit;
      (** Invoked with the fresh output of every sampling tick. *)
  app_round : unit -> unit;
      (** Invoked right after the sampler's round — the app's
          heartbeat, at the exchange cadence τ. *)
}
(** An application layer's hooks. *)

val gossip : Basalt_gossip.Gossip.t -> app
(** [gossip g] mounts the broadcast layer: broadcast frames go to
    {!Basalt_gossip.Gossip.on_message}, samples to
    {!Basalt_gossip.Gossip.on_samples}, and the heartbeat rides the
    round. *)

type t

val create :
  ?app:app -> stream:Basalt_core.Sample_stream.t -> Basalt_proto.Rps.t -> t
(** [create ~stream sampler] composes [sampler] with [app] (default: none,
    which consumes no frame and ignores rounds and samples) and the
    [stream] its samples are pushed to. *)

val view : t -> Basalt_proto.Node_id.t array
(** [view t] is the sampler's current view. *)

val stream : t -> Basalt_core.Sample_stream.t
(** [stream t] is the node's sample stream. *)

val deliver :
  t -> from:Basalt_proto.Node_id.t -> Basalt_proto.Message.t -> unit
(** [deliver t ~from msg] offers [msg] to the app first; the sampler
    gets it only if the app does not consume it. *)

val round : t -> unit
(** [round t] runs the sampler's round, then the app's. *)

val tick : t -> Basalt_proto.Node_id.t list
(** [tick t] draws one sampling tick, pushes the samples to the stream,
    hands them to the app, and returns them. *)
