(** Run-wide delivery bookkeeping for broadcast experiments and tests.

    One tracker per simulated run records, in virtual time, when each
    message was published and when each node delivered it; the queries
    derive the §-style dissemination metrics — delivery fraction,
    time-to-99% — without touching the protocol state.  Iteration
    follows explicit publish order (never hash-table order), so every
    aggregate is deterministic. *)

type t

val create : n:int -> unit -> t
(** [create ~n ()] tracks deliveries for nodes [0 .. n-1].
    @raise Invalid_argument if [n < 1]. *)

val published : t -> Basalt_proto.Message.mid -> time:float -> unit
(** [published t mid ~time] records the publish instant.  May be called
    after the publisher's own {!delivered} (the local delivery fires
    inside [publish]); the publish time always wins. *)

val delivered : t -> Basalt_proto.Message.mid -> node:int -> time:float -> unit
(** [delivered t mid ~node ~time] records a delivery callback.  A
    second delivery of the same message by the same node is counted in
    {!duplicate_deliveries} (the exactly-once property asserts it never
    happens); nodes outside [0 .. n-1] are ignored. *)

(* lint: allow D12 — test seam: the exactly-once checks count
   re-deliveries, which no output reports. *)
val duplicate_deliveries : t -> int
(** [duplicate_deliveries t] counts re-deliveries — 0 when the
    broadcast layer honours exactly-once delivery. *)

val fraction : t -> float
(** [fraction t] is delivered (message, node) pairs over all such
    pairs — 1.0 means every node got every message.  0 when nothing was
    published. *)

val median_time_to_fraction : t -> frac:float -> float option
(** [median_time_to_fraction t ~frac] is, per message, the delay from
    publish until a [frac] fraction of the nodes had delivered it,
    medianed over messages; [None] when a majority of messages never
    reached the threshold. *)
