(** Aggregation helpers shared by the multi-seed experiment sweeps and
    the declarative matrix driver (lib/scenario, DESIGN.md §12), so
    every route computes its statistics the same way.  The regrouping
    step that precedes them is {!Basalt_sim.Sweep.chunks}. *)

val mean : ('a -> float) -> 'a list -> float
(** [mean f xs] is the arithmetic mean of [f] over [xs] ([nan] on the
    empty list). *)

val sum : ('a -> int) -> 'a list -> int
(** [sum f xs] totals [f] over [xs]. *)

val median_opt : float option list -> float option
(** [median_opt times] applies the sweeps' majority rule: [None] unless
    more than half of the entries are [Some], otherwise the median of
    the present values (upper median for even counts). *)
