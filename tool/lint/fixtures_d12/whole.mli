(** D12 fixture: a module a program uses only as a functor argument. *)

type t = int

val compare : t -> t -> int
(** The ordering [Set.Make] needs. *)

val describe : t -> string
(** Referenced by no one, yet not flagged: the whole module is used. *)
