(** The Byzantine adversary of the paper's evaluation (§4.1).

    All malicious nodes are modelled collectively: they collude, know each
    other's identifiers, and implement the worst-case strategy the paper
    simulates —

    - a malicious node that receives a pull request replies with a view of
      [v] identifiers drawn uniformly among the malicious nodes;
    - every round, the coalition sends push messages to correct peers,
      each containing [v] uniformly random malicious identifiers; the
      {e attack force} [F] scales how many such pushes are sent per
      malicious node per round relative to a correct node's single push.

    Strategies vary only the targeting of pushes:
    - {!Flood}: pushes spread uniformly over all correct nodes (the
      evaluation's default);
    - {!Eclipse}: all pushes concentrate on one victim (the §5 scenario);
    - {!Silent}: no pushes at all (SPS's favorable [F = 0] case — the
      adversary still answers pulls). *)

type strategy = Flood | Eclipse of Basalt_proto.Node_id.t | Silent

type t
(** The (collective) adversary state. *)

val create :
  rng:Basalt_prng.Rng.t ->
  malicious:Basalt_proto.Node_id.t array ->
  correct:Basalt_proto.Node_id.t array ->
  v:int ->
  force:float ->
  ?strategy:strategy ->
  send:(src:Basalt_proto.Node_id.t -> dst:Basalt_proto.Node_id.t -> Basalt_proto.Message.t -> unit) ->
  unit ->
  t
(** [create ~rng ~malicious ~correct ~v ~force ~send ()] prepares the
    coalition.  [v] is the view size used in forged messages; [force] is
    [F] (may be fractional — the expected number of pushes is
    [F * |malicious|] per round).
    @raise Invalid_argument if [malicious] is empty (use no adversary
    instead), [v <= 0], or [force < 0]. *)

val on_message :
  t -> victim_reply:bool -> from:Basalt_proto.Node_id.t ->
  to_:Basalt_proto.Node_id.t -> Basalt_proto.Message.t -> unit
(** [on_message t ~victim_reply ~from ~to_ msg] processes a message
    delivered to malicious node [to_]: pull requests are answered with a
    forged view (unless [victim_reply] is [false], modelling an adversary
    that also censors by silence). Other messages are absorbed. *)

val on_round : t -> unit
(** [on_round t] sends this round's push volley according to the strategy
    and force. *)

val pushes_sent : t -> int
(** [pushes_sent t] is the total number of forged pushes so far. *)
