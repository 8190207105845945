(** A Basalt node over real UDP datagrams.

    Binds a socket, runs {!Basalt_core.Basalt} (composed with the
    optional broadcast layer by {!Basalt_assembly.Node}, as in
    simulation) with the {!Wire} codec on an {!Event_loop}, and exposes
    the sampling service.  Identifiers are
    packed endpoints ({!Endpoint.to_node_id}), so discovering an
    identifier is discovering how to reach it — the paper's system model
    made concrete.

    Several nodes can share one event loop (and thus one OS thread),
    which is how the integration tests and the [local_udp] example run a
    whole overlay inside a single process. *)

type stats = {
  datagrams_in : int;
  datagrams_out : int;  (** Datagrams [sendto] accepted. *)
  send_errors : int;
      (** Datagrams [sendto] refused (EAGAIN, ENOBUFS, EACCES, ...):
          lost, and not counted in [datagrams_out]. *)
  decode_errors : int;
      (** Datagrams dropped undelivered: the codec rejected them
          ({!Basalt_codec.Wire.decode_sub} returned [Error _]), or they
          decode but carry an identifier or a message-id origin of
          2{^48} or more, which no endpoint packs to
          ({!Endpoint.valid_id}).  Such a datagram does not answer a
          pending pull either. *)
  retries : int;  (** Pull retransmissions (see {!create}). *)
}

type t

val create :
  config:Basalt_core.Config.t ->
  ?obs:Basalt_obs.Obs.t ->
  ?inject_loss:float ->
  ?inject_delay:float ->
  ?gossip:bool ->
  ?deliver:(Basalt_proto.Message.mid -> bytes -> unit) ->
  loop:Event_loop.t ->
  listen:Endpoint.t ->
  bootstrap:Endpoint.t list ->
  seed:int ->
  unit ->
  t
(** [create ~config ~loop ~listen ~bootstrap ~seed ()] binds [listen]
    (port 0 lets the OS pick; see {!endpoint}) and schedules the
    protocol's periodic tasks on [loop]: one exchange round every [tau]
    {e seconds} and a sampling tick every [k/rho] seconds.

    A [PULL] that stays unanswered is retransmitted after 0.25 s, then
    0.5 s and 1 s, each wait stretched by a seeded uniform jitter of up
    to 10 % (DESIGN.md §10), until any decodable datagram arrives from
    the peer; 2 s after the third retransmission the pull is given up,
    and leaves the RTT tracker ({!Basalt_core.Basalt.abandon_pull}).
    The timers are event-loop timers, so under a virtual clock the
    schedule is deterministic in virtual time.  Any decodable datagram
    from a peer, a broadcast frame included, also clears the protocol's
    eviction probe ({!Basalt_core.Basalt.clear_probe}); when the
    configuration enables [evict_after_rounds], each retransmission
    re-records it ({!Basalt_core.Basalt.record_probe}), so
    transport-level persistence and dead-peer eviction stay coupled.

    [inject_loss] / [inject_delay] (defaults 0) degrade the node's {e
    outgoing} datagrams for soak testing without root or [tc]: each
    datagram is dropped with probability [inject_loss], otherwise
    postponed by a uniform draw from [\[0, inject_delay)] seconds.  Both
    draw from streams split off [seed], so a degraded run is replayable.

    [gossip] (default [false]) mounts the {!Basalt_gossip.Gossip}
    epidemic broadcast layer (DESIGN.md §11) as the node's app
    ({!Basalt_assembly.Node.gossip}); [deliver] (default a no-op) fires
    exactly once per received or published message.  Without [gossip]
    the node draws exactly the PRNG streams it always did, and inbound
    broadcast frames fall through to the sampler, which ignores them.

    [obs] (default disabled) is threaded into the protocol instance and
    additionally records [net.datagrams_in], [net.datagrams_out],
    [net.send_errors], [net.decode_errors], [net.retries] and
    [net.injected_drops] (plus
    the [gossip.*] instruments when [gossip] is enabled).  This is
    the one allowlisted boundary where the sink's clock may come from the
    event loop's real monotonic time (lint D2/D8, DESIGN.md §8).
    @raise Invalid_argument if [inject_loss] is outside [\[0, 1]] or
    [inject_delay] is negative, NaN included.
    @raise Unix.Unix_error if the socket cannot be bound. *)

val endpoint : t -> Endpoint.t
(** [endpoint t] is the actually-bound address (resolves port 0). *)

val view : t -> Endpoint.t list
(** [view t] is the current view as endpoints. *)

val samples : t -> Basalt_core.Sample_stream.t
(** [samples t] is the service's output stream. *)

val max_payload : int
(** [max_payload] is 65,487: the longest broadcast payload whose Gossip
    frame (a 20-byte header before the payload) fits one IPv4 UDP
    datagram of 65,507 bytes.  The wire format itself allows up to
    {!Basalt_codec.Wire.max_payload}, but a longer frame is refused by
    [sendto] and never leaves the host. *)

val publish : t -> bytes -> Basalt_proto.Message.mid
(** [publish t payload] originates a broadcast message through the
    gossip layer and returns its identifier.
    @raise Invalid_argument if {!create} was not given [gossip], or the
    payload exceeds {!max_payload} bytes. *)

val gossip_stats : t -> Basalt_gossip.Gossip.stats option
(** [gossip_stats t] reads the broadcast layer's counters ([None] when
    the layer is disabled). *)

val stats : t -> stats
(** [stats t] returns the transport counters so far. *)

(* lint: allow D12 — test seam: the RTT tracker's pending pulls, whose
   bound over a retry window the soak tests check and no output shows. *)
val pending_pulls : t -> int
(** [pending_pulls t] is {!Basalt_core.Basalt.pending_pulls} of the
    node's sampler: pulls its RTT tracker still awaits.  A pull leaves
    it when answered or when its retries are exhausted, so it stays
    bounded by the pulls of the last retry window, about 4 s ([0]
    without a registry). *)

val close : t -> unit
(** [close t] unregisters from the loop and closes the socket. *)
