(** The Snowball metastable binary consensus (Team Rocket et al., 2019).

    Snowball is the single-decision core of the Avalanche family — the
    paper's target use case for a secure RPS: each node repeatedly queries
    a small committee of [sample_size] peers {e drawn from the peer
    sampling service} and shifts its preference toward colors that gather
    an [alpha]-quorum, finalising after β = 12 consecutive quorums for
    the same color.  A biased sampler lets an adversary over-represent its
    votes in committees, which is precisely what Basalt prevents. *)

type color = Red | Blue

val color_equal : color -> color -> bool
(** [color_equal a b] is equality on colors. *)

val opposite : color -> color
(** [opposite c] flips {!Red} and {!Blue}. *)

val sample_size : int
(** [sample_size] is the committee size k = 10.  With {!alpha} and the
    β = 12 consecutive successes an instance needs to finalise, these
    are values in the Avalanche paper's deployment range. *)

val alpha : int
(** [alpha] is the quorum threshold, 7 of the 10 votes needed for a
    "success". *)


type t
(** One node's Snowball instance for one decision. *)

val create : color -> t
(** [create initial] starts with preference [initial]. *)

val preference : t -> color
(** Current preferred color (what the node answers to queries). *)

val decided : t -> bool
(** Whether the instance has finalised. *)

val decision : t -> color option
(** The finalised color, if {!decided}. *)

val register_votes : t -> color list -> unit
(** [register_votes t votes] processes one completed query round.  If
    some color has at least [alpha] votes, its confidence counter
    increases and the conviction streak advances (resetting when the
    successful color changes); otherwise the streak resets.  No-op once
    decided. *)
