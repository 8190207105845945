(** The eager-push peer set.

    A small insertion-ordered set (the gossip layer bounds its degree
    by 8, so linear operations are fine) of the peers
    that receive full messages immediately.  Insertion order is the
    only order the protocol ever observes, keeping mesh behaviour
    independent of identifier values. *)

type t

val create : unit -> t
(** [create ()] is an empty mesh. *)

val mem : t -> Basalt_proto.Node_id.t -> bool
(** [mem t p] is whether [p] is an eager peer. *)

val add : t -> Basalt_proto.Node_id.t -> bool
(** [add t p] appends [p]; [false] (and no change) when already
    present. *)

val remove : t -> Basalt_proto.Node_id.t -> unit
(** [remove t p] demotes [p]; a no-op when absent. *)

val degree : t -> int
(** [degree t] is the number of eager peers. *)

val peers : t -> Basalt_proto.Node_id.t list
(** [peers t] in insertion order. *)
