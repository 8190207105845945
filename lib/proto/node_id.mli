(** Node identifiers.

    In the simulator a node identifier is a dense non-negative integer
    (index into the engine's node table).  The paper's model (§2.1) only
    requires identifiers to be unique and hashable; a real deployment
    would use e.g. a public key fingerprint — the rank functions in
    {!Basalt_hashing.Rank} treat identifiers opaquely either way. *)

type t = private int
(** A node identifier. *)

val of_int : int -> t
(** [of_int i] views [i] as a node identifier.
    @raise Invalid_argument if [i < 0]. *)

val to_int : t -> int
(** [to_int id] is the underlying integer. *)

val equal : t -> t -> bool
(** Equality on identifiers. *)
