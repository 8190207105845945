(** Bounded message cache: deduplication plus the [IHave] window.

    Stores the last [capacity] messages seen (payload and hop count),
    evicting oldest-first, and keeps a ring of [history] advertisement
    windows: a message entered in one of the last [history] heartbeats
    appears in {!window} and is advertised in [IHave] digests;
    {!shift} closes the current window at each heartbeat.

    Deduplication is bounded by construction: once a message falls out
    of the cache the layer may accept it again.  With the default
    capacity this horizon is far beyond the [history * heartbeat]
    interval during which duplicates actually circulate.

    The cache never iterates its hash table (insertion order lives in an
    explicit queue), so no behaviour depends on hash-bucket layout. *)

type t

val create : capacity:int -> history:int -> t
(** [create ~capacity ~history] is an empty cache.
    @raise Invalid_argument if [capacity < 1] or [history < 1]. *)

val seen : t -> Basalt_proto.Message.mid -> bool
(** [seen t mid] is whether [mid] is currently cached. *)

val add : t -> Basalt_proto.Message.mid -> hops:int -> bytes -> unit
(** [add t mid ~hops payload] inserts a message into the cache and the
    current advertisement window; a no-op when [mid] is already
    cached.  Evicts the oldest entry beyond capacity. *)

val find : t -> Basalt_proto.Message.mid -> (bytes * int) option
(** [find t mid] is the cached [(payload, hops)], if still retained —
    how [IWant] requests are served. *)

val shift : t -> unit
(** [shift t] closes the current advertisement window (called once per
    heartbeat): the oldest window's identifiers stop being advertised
    (they remain cached until evicted by capacity). *)

val window : t -> Basalt_proto.Message.mid list
(** [window t] is the identifiers to advertise: every message added
    within the last [history] windows, most recent window first,
    newest-first within a window.  Deterministic insertion order. *)

