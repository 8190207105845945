(** Shared table emission for experiment modules: print to stdout and
    optionally write the same rows as CSV for external plotting. *)

val line : string -> unit
(** [line s] prints [s] followed by a newline on stdout.  Banner and
    note lines from libraries outside [lib/experiments] (notably the
    matrix driver in [lib/scenario], which lint rule D6 keeps away from
    the console) route through here. *)

val emit :
  ?csv:string -> rows:int -> Basalt_sim.Report.column list -> unit
(** [emit ?csv ~rows cols] prints the aligned table; when [csv] is given,
    also writes the data to that path and notes it on stdout.  Each
    [cell] is called once per row either way. *)
