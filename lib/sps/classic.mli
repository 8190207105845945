(** Classical (non-Byzantine-tolerant) random peer sampling.

    The baseline update rule of paper Eq. (1): each round the node pushes
    its view and pulls a partner's view, then rebuilds its own as a
    uniform selection of [l] identifiers from pushed ∪ pulled ∪ previous
    view.  With no defense, Byzantine flooding quickly saturates the view
    — this is the protocol the eclipse-defense example breaks, and the
    substrate on which {!Sps} adds its statistical filtering. *)

type config = private {
  l : int;  (** View size. *)
  keep_old : bool;
      (** Include the previous view in the selection pool (the common
          variant; [false] gives pure replacement). *)
}

val config : ?l:int -> ?keep_old:bool -> unit -> config
(** [config ()] defaults to [l = 160], [keep_old = true].
    @raise Invalid_argument if [l <= 0]. *)

type t
(** One node's state. *)

val create :
  ?config:config ->
  ?filter:(Basalt_proto.Node_id.t -> bool) ->
  ?obs:Basalt_obs.Obs.t ->
  ?label:string ->
  id:Basalt_proto.Node_id.t ->
  bootstrap:Basalt_proto.Node_id.t array ->
  rng:Basalt_prng.Rng.t ->
  send:Basalt_proto.Rps.send ->
  unit ->
  t
(** [create ~id ~bootstrap ~rng ~send ()] seeds the view with up to [l]
    bootstrap peers.  [filter], if given, rejects identifiers before they
    enter the candidate pool (the hook {!Sps} uses for blacklisting).

    [obs] (default disabled) records counters [<label>.rounds],
    [<label>.pulls_sent], [<label>.pushes_sent],
    [<label>.samples_emitted] and [<label>.view_rebuilds], and meters
    outgoing messages through {!Basalt_codec.Metered.send}; [label]
    (default ["classic"]) prefixes the instrument names so a wrapping
    protocol ({!Sps}) reports under its own name. *)

val on_round : t -> unit
(** Rebuilds the view from the previous round's receipts, then sends one
    [PUSH view] and one [PULL]. *)

val on_message : t -> from:Basalt_proto.Node_id.t -> Basalt_proto.Message.t -> unit
(** [on_message t ~from msg] records the round's receipts (pushes and pull
    replies) and answers pulls. *)

val view : t -> Basalt_proto.Node_id.t array
(** [view t] is the current view (at most [l] identifiers). *)

val sample : t -> int -> Basalt_proto.Node_id.t list
(** [sample t k] returns [k] uniform members of the current view (the
    classical service's output stream); fewer if the view is smaller. *)

val evict : t -> (Basalt_proto.Node_id.t -> bool) -> unit
(** [evict t p] removes from the view all identifiers satisfying [p]. *)

val sampler :
  ?config:config -> ?obs:Basalt_obs.Obs.t -> unit -> Basalt_proto.Rps.maker
(** Packaged for the simulation runner; [sample_tick] emits one view
    member per tick ([obs] is threaded to {!create}). *)
