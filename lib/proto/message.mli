(** Wire messages exchanged by the peer-sampling protocols and the
    epidemic broadcast layer built on top of them.

    The first four message kinds cover every sampler in this repository:
    - Basalt (Alg. 1) uses [Pull_request] and view-carrying pushes/replies;
    - Brahms pushes only the sender's own identifier ([Push_id], its §4.3
      design choice) and pulls full views;
    - SPS and the classical RPS shuffle views both ways.

    The remaining five are the broadcast frames of [lib/gossip]
    (DESIGN.md §11): eager-pushed payloads ([Gossip]), lazy digests
    ([Ihave]) and their repair requests ([Iwant]), and the mesh
    maintenance notifications ([Graft]/[Prune]).  Samplers ignore
    broadcast frames and the broadcast layer ignores sampler frames, so
    both protocols share one datagram socket.

    Payload sizes are what the paper's communication-budget argument
    (§4.3) accounts for: a full view of at most 200 four-byte identifiers
    fits one 1500-byte MTU datagram. *)

type mid = { origin : Node_id.t; seqno : int }
(** A broadcast message identifier: the publisher plus its per-publisher
    sequence number.  On the wire the sequence number is an unsigned
    32-bit integer. *)

val mid_equal : mid -> mid -> bool
(** Structural equality of message identifiers. *)

type t =
  | Pull_request  (** Ask the recipient for its current view. *)
  | Pull_reply of Node_id.t array  (** Reply to a pull: sender's view. *)
  | Push of Node_id.t array  (** Unsolicited view advertisement. *)
  | Push_id of Node_id.t  (** Brahms-style push of a single identifier. *)
  | Gossip of { mid : mid; hops : int; payload : bytes }
      (** Eager push of a broadcast payload; [hops] counts forwarding
          steps from the publisher (capped at 65535 on the wire). *)
  | Ihave of mid array  (** Lazy digest: identifiers the sender holds. *)
  | Iwant of mid array  (** Repair request for missed identifiers. *)
  | Graft  (** Ask the recipient to add the sender to its eager mesh. *)
  | Prune  (** Ask the recipient to stop eager-pushing to the sender. *)

val kind : t -> string
(** [kind m] is a short label ("pull", "pull-reply", "push", "push-id",
    "gossip", "ihave", "iwant", "graft", "prune"). *)

val bytes_on_wire : t -> int
(** [bytes_on_wire m] estimates the datagram payload size (4 bytes per
    identifier plus a 4-byte header; broadcast frames add 4 bytes per
    sequence number, 2 per hop counter, and the payload verbatim). *)
