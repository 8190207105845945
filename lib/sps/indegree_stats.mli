(** Decayed frequency statistics over observed node identifiers.

    SPS (Jesi, Montresor & van Steen, 2010) detects {e hub attacks} by
    gathering statistics on the identifiers a node encounters in gossip
    exchanges: an identifier whose observed frequency (a proxy for its
    indegree) is extreme compared to the population is suspected of being
    malicious.  This module implements the bookkeeping: exponentially
    decayed occurrence counters and an outlier test. *)

type t
(** A mutable frequency table. *)

val create : ?decay:float -> unit -> t
(** [create ~decay ()] uses multiplicative decay factor [decay]
    (default [0.9]) applied by each {!tick}.
    @raise Invalid_argument unless [0 < decay <= 1]. *)

val record : t -> Basalt_proto.Node_id.t -> unit
(** [record t id] counts one occurrence of [id]. *)

val tick : t -> unit
(** [tick t] applies one decay step, prunes negligible entries, and
    refreshes the mean/std snapshot used by {!is_outlier} (which is
    otherwise kept stale for speed: one refresh per round, not per
    observation). *)

val is_outlier : t -> z:float -> Basalt_proto.Node_id.t -> bool
(** [is_outlier t ~z id] is [true] when [count id > mean + z * std] and
    enough identifiers have been observed for the statistics to be
    meaningful (at least 10 tracked identifiers — the warm-up period the
    Basalt paper identifies as SPS's weakness). *)
