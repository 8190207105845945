(** The Avalanche transaction DAG (Team Rocket et al., 2019, §2).

    Avalanche generalises Snowball from one binary decision to a DAG of
    transactions partitioned into {e conflict sets} (e.g. all spends of
    one UTXO).  Each node maintains:

    - the DAG of known transactions (each names its parents);
    - one {e chit} per transaction — a binary vote earned when a query
      about the transaction gathers an α-quorum;
    - per conflict set, a Snowball-like state: the {e preferred}
      transaction (highest confidence), the last winner, and a counter of
      consecutive successful queries.

    A transaction is {e strongly preferred} when it and every ancestor is
    the preferred member of its conflict set — that is what an honest
    peer answers queries with.  A transaction is {e accepted} by safe
    early commitment (no conflicts ever seen and [beta1] consecutive
    successes) or by the conservative rule ([beta2] consecutive
    successes) (§2, Fig. 5 of the Avalanche paper).

    This module is the per-node data structure; {!Dag_network} runs it
    over the simulator with RPS-sampled query committees. *)

module Tx : sig
  type id = int
  (** Transaction identifier (unique network-wide). *)

  type t = {
    id : id;
    parents : id list;  (** Must already be known on insertion. *)
    conflict : int;  (** Conflict-set key (e.g. spent-output id). *)
  }

  val genesis : t
  (** The root transaction every DAG starts with (id 0, conflict -1). *)

  val pp : Format.formatter -> t -> unit
  (** Formatter for transactions. *)

end

type t
(** One node's DAG state. *)

val create : unit -> t
(** [create ()] contains only {!Tx.genesis} (already accepted). *)

val insert : t -> Tx.t -> (unit, string) result
(** [insert t tx] adds [tx].  Inserting a known transaction is a no-op;
    unknown parents are an error (the network layer fetches ancestors
    first). *)

val known : t -> Tx.id -> bool
(** [known t id] is [true] if [id] is present in the DAG. *)

val transactions : t -> Tx.id list
(** All known transaction ids, insertion-ordered. *)

val ancestor_closure : t -> Tx.id -> Tx.t list
(** [ancestor_closure t id] is [id]'s ancestry (including itself) in
    topological order, parents before children — what a query message
    carries so any recipient can insert the transaction. *)

val is_strongly_preferred : t -> Tx.id -> bool
(** Whether the transaction and all its ancestors are preferred. *)

val record_query_success : t -> Tx.id -> unit
(** [record_query_success t id] awards a chit to [id] and updates
    preference, last-winner and counter state for it and every ancestor
    (the Avalanche update after an α-quorum of positive votes). *)

val record_query_failure : t -> Tx.id -> unit
(** [record_query_failure t id] resets the consecutive-success counters
    of [id] and its ancestors. *)

val accepted : t -> Tx.id -> bool
(** [accepted t id] applies the two commitment rules, with [beta1 = 5]
    and [beta2 = 8].  Acceptance requires all ancestors accepted too.
    Genesis is always accepted. *)
