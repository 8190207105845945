(** The epidemic broadcast node (DESIGN.md §11).

    An eager/lazy-push dissemination layer in the Plumtree / gossipsub
    family, running {e on top of} any random peer sampling service:
    full messages are pushed immediately along a small eager mesh
    (degree kept within [\[2, 8\]] around a target of 4 by graft/prune
    repair), while every other known peer receives periodic [IHave]
    digests and pulls missing messages with [IWant].  The mesh is
    replenished from the sampler's output, so a sampler that bounds
    Byzantine over-representation (Basalt) keeps the dissemination tree
    mostly correct even under attack — the application-level payoff
    measured by the [broadcast] experiment.

    The layer runs with one fixed parameter set: a message id stays
    advertised for 3 heartbeats, each heartbeat sends its digest to 6
    non-mesh peers, the 512 most recent messages are cached for
    deduplication and [IWant] service, and a missing message is
    re-requested after one heartbeat, at most 3 times.

    The layer shares the sampler's transport: its five wire frames
    ([Gossip]/[IHave]/[IWant]/[Graft]/[Prune],
    {!Basalt_proto.Message.is_broadcast}) ride the same
    {!Basalt_proto.Rps.send} callback, and the host (simulation runner
    or UDP event loop) routes inbound broadcast frames here via
    {!on_message} and everything else to the sampler.

    Determinism: all randomness is drawn from the [rng] handed to
    {!create} — split it from the per-concern master stream, never
    share it with another consumer (lint rule D10).  Telemetry goes
    through the optional [obs] registry and observes only
    deterministic quantities (counts and hop distances). *)

type t

type stats = {
  published : int;  (** Messages published locally. *)
  delivered : int;
      (** [deliver] callbacks fired (one per unique message, local
          publishes included). *)
  duplicates : int;  (** Redundant data frames received. *)
  ihave_sent : int;  (** [IHave] digest frames sent. *)
  iwant_sent : int;  (** [IWant] request frames sent. *)
  grafts_sent : int;  (** [Graft] frames sent. *)
  prunes_sent : int;  (** [Prune] frames sent. *)
}
(** This node's own counts on its [gossip.*] counter handles
    ({!Basalt_obs.Obs.Counter.own}): per node even when the registry is
    shared, and readable without an enabled registry. *)

val create :
  ?obs:Basalt_obs.Obs.t ->
  node:Basalt_proto.Node_id.t ->
  view:(unit -> Basalt_proto.Node_id.t array) ->
  rng:Basalt_prng.Rng.t ->
  send:Basalt_proto.Rps.send ->
  deliver:(Basalt_proto.Message.mid -> bytes -> unit) ->
  unit ->
  t
(** [create ~node ~view ~rng ~send ~deliver ()] builds one node's
    broadcast layer.  [view] exposes the sampler's current neighbour
    set (the lazy-digest audience; an empty view — e.g.
    {!Basalt_proto.Rps.null} — is tolerated and simply mutes the
    layer).  [deliver] is invoked exactly once per message the node
    receives (or publishes), in receipt order.  [obs] (default
    disabled, free) registers the [gossip.published / delivered /
    duplicates / ihave / iwant / grafts / prunes] counters and the
    [gossip.hops] quantile sketch of hop distances at delivery.  Under
    tracing, every publish and delivery additionally emits a
    [gossip.publish] / [gossip.deliver] event whose [trace] field is
    the broadcast's ["origin#seqno"] identity, so per-message
    dissemination curves (hop latency, time-to-delivery) are derivable
    offline with [tool/trace] (DESIGN.md §8). *)

val publish : t -> bytes -> Basalt_proto.Message.mid
(** [publish t payload] originates a message: assigns the next
    sequence number, delivers it locally, and eager-pushes it to the
    mesh.  Returns the message identifier.
    @raise Invalid_argument if the payload exceeds
    {!Basalt_codec.Wire.max_payload} bytes. *)

val on_message : t -> from:Basalt_proto.Node_id.t -> Basalt_proto.Message.t -> bool
(** [on_message t ~from msg] processes one inbound frame.  Returns
    [true] when the frame was a broadcast frame (consumed here),
    [false] for sampler frames the host should route to the RPS
    layer. *)

val on_samples : t -> Basalt_proto.Node_id.t list -> unit
(** [on_samples t ps] feeds fresh sampler output; the most recent
    identifiers are kept as mesh replenishment candidates (preferred
    over the raw view, since the secure sample stream is what bounds
    Byzantine mesh membership). *)

val heartbeat : t -> unit
(** [heartbeat t] runs one maintenance round: retries missing
    messages (graft + re-request towards the next advertiser), rotates
    the oldest eager peer out (never below the lower bound 2, so the
    mesh keeps tracking the {e current} sample stream quality), tops the
    mesh back up to the target degree 4, prunes it down to the upper
    bound 8 when grafts overshot, and sends the [IHave] digest of the
    recent windows to 6 non-mesh peers.  Call it at the sampler's
    round cadence. *)

(* lint: allow D12 — test seam: the mesh that grafts, prunes and
   heartbeats maintain, which no output shows. *)
val eager_peers : t -> Basalt_proto.Node_id.t list
(** [eager_peers t] is the current mesh, in insertion order. *)

val stats : t -> stats
(** [stats t] reads this node's counter handles. *)
