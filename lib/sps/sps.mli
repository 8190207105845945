(** SPS — Secure Peer Sampling (Jesi, Montresor & van Steen, 2010).

    SPS extends classical view shuffling with statistical hub detection
    inspired by social-network analysis (paper §2.2): each node gathers
    frequency statistics on the identifiers it encounters; identifiers
    with extreme observed indegree are suspected and blacklisted —
    filtered from incoming views and evicted from the local view.

    The detection needs a warm-up period to accumulate statistics, which
    is exactly the weakness the Basalt paper exploits: under aggressive
    flooding, correct nodes are isolated before the statistics stabilise
    (§4.3 reports 90% of correct nodes isolated at n = 1000, f = 30%,
    even with attack force F = 0).  The [sps-failure] experiment
    reproduces this. *)

type config = private { l : int  (** View size. *) }

val config : ?l:int -> unit -> config
(** [config ()] defaults to [l = 160].  The detector's parameters are
    fixed: the frequency statistics decay by 0.9 per round; an
    identifier is blacklisted for 50 rounds when its count exceeds
    mean + 3·std; and no identifier is blacklisted during the first 30
    rounds of warm-up — the detector needs a population baseline before
    it can call an indegree "extreme", so during warm-up SPS behaves
    like the classical shuffler, the window the Basalt paper's attack
    exploits.
    @raise Invalid_argument on non-positive [l]. *)

val sampler :
  ?config:config -> ?obs:Basalt_obs.Obs.t -> unit -> Basalt_proto.Rps.maker
(** Packaged for the simulation runner, like {!Classic.sampler} but with the
    SPS defenses enabled: each node wraps a {!Classic} instance with
    indegree tracking and outlier blacklisting.  A round advances the
    round counter, decays the indegree statistics and runs the base
    protocol's round; an incoming message's identifiers are screened
    through the outlier test (blacklisting and evicting offenders)
    before the base protocol consumes it, and a blacklisted sender's
    messages are dropped.  [obs] (default disabled) is threaded to the
    base shuffler under the [sps.] instrument prefix and additionally
    records [sps.blacklist_adds]. *)
