(** Tabular and CSV reporting of experiment results.

    Each reproduction target prints the series a paper figure plots as an
    aligned text table (one row per x-value or per time point) and can
    also emit CSV for external plotting. *)

type column = { header : string; cell : int -> string }
(** A named column; [cell i] renders row [i]. *)

(* lint: allow D12 — test seam: the rendered table as a string, which
   print_table writes to stdout. *)
val table : rows:int -> column list -> string
(** [table ~rows cols] renders an aligned table with a header line and a
    separator, calling each [cell] once per row. *)

val freeze : rows:int -> column list -> column list
(** [freeze ~rows cols] calls each [cell] once per row and returns the
    same columns reading the stored strings, so that rendering one set
    of rows as both a table and a CSV evaluates every cell once. *)

val print_table : rows:int -> column list -> unit
(** [print_table] writes {!table} to stdout. *)

(* lint: allow D12 — test seam: the CSV text write_csv writes to a
   file. *)
val csv : rows:int -> column list -> string
(** [csv ~rows cols] renders the same data as CSV. *)

val write_csv : path:string -> rows:int -> column list -> unit
(** [write_csv ~path ~rows cols] writes {!csv} to [path]. *)

val float_cell : float -> string
(** Render a float with 4 significant decimals ("-" for nan). *)

val series_columns :
  Measurements.t -> column list
(** Standard columns (time, view_byz, sample_byz, isolated, plus graph
    metrics when present) for a measurement series; row [i] is the [i]-th
    measurement point.  When points carry an instrument snapshot (a run
    with [~obs:true]), one extra column per instrument is appended in
    registration order; integral values render without decimals. *)

val sparkline : ?width:int -> float array -> string
(** [sparkline xs] renders the series as a fixed-width (default 60)
    Unicode block-character strip, downsampling by averaging.  NaN values
    render as spaces; an empty or all-NaN series gives an empty strip.
    Useful for eyeballing convergence directly in a terminal. *)
