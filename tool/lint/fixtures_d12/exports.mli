(** D12 fixture: one export per verdict, laid out as a lib/ interface. *)

val used_by_program : int -> int
(** Called by the program [prog.ml]. *)

val used_via_alias : int -> int
(** Called by [prog.ml] through a module alias. *)

val used_by_test : int -> int
(** Called only by the test [t.ml]: flagged. *)

val used_by_self : int -> int
(** Called only inside [exports.ml]: flagged. *)

(* lint: allow D12 — fixture: an export kept for a stated reason *)
val kept : int -> int
(** Called by nothing: suppressed by its pragma. *)

(* lint: allow D12 — fixture: stale, the program calls it *)
val stale : int -> int
(** Called by [prog.ml], so its pragma suppresses nothing: D11. *)
