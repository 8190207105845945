(** Tracker of announced-but-missing messages.

    When an [IHave] digest advertises a message we have not received,
    the identifier is tracked here together with every peer that
    advertised it.  Each heartbeat ages the entries; an entry older
    than the configured timeout triggers a recovery attempt — the
    caller grafts towards the next advertiser and re-requests — until
    the message arrives or the retry budget is exhausted.

    Entries are kept in arrival order and advertisers in announcement
    order, so recovery is deterministic. *)

type t

val create : timeout:int -> retries:int -> unit -> t
(** [create ~timeout ~retries ()] tracks nothing yet.
    @raise Invalid_argument if [timeout < 1] or [retries < 0]. *)

val note : t -> Basalt_proto.Message.mid -> holder:Basalt_proto.Node_id.t -> bool
(** [note t mid ~holder] records that [holder] advertised [mid].
    [true] when [mid] was not yet tracked (the caller should request it
    from [holder] right away); [false] adds [holder] as a backup
    advertiser. *)

val received : t -> Basalt_proto.Message.mid -> unit
(** [received t mid] stops tracking [mid] (the message arrived). *)

val tick : t -> (Basalt_proto.Message.mid * Basalt_proto.Node_id.t) list
(** [tick t] ages every entry by one heartbeat and returns the
    recovery actions due: for each entry past its timeout, the
    identifier and the advertiser to graft towards (advertisers
    rotate, so consecutive attempts target different peers when
    possible).  Entries out of retries are dropped. *)

