module Model = Basalt_analysis.Model
module Isolation_bound = Basalt_analysis.Isolation_bound
module Report = Basalt_sim.Report

type worked = {
  joining_bound : float;
  delta_c : float;
  c_next : float;
  safe_c : float;
}

let worked_examples () =
  (* Joining bound: n = 10000, f = 0.1, v = 200, I = fn/4, f0 = 0.5. *)
  let env_join = Model.env ~n:10_000 ~f:0.1 ~v:200 () in
  let bootstrap_size = int_of_float (Model.b_max env_join /. 4.0) in
  let joining_bound =
    Isolation_bound.joining_isolation_probability ~env:env_join ~f0:0.5
      ~bootstrap_size
  in
  (* Growth bound: v = 100, k = 50, c0 = 125 (the paper's worked case). *)
  let env_grow = Model.env ~n:10_000 ~f:0.1 ~v:100 () in
  let delta_c = Isolation_bound.delta_c_lower_bound ~env:env_grow ~k:50 ~c0:125.0 in
  let safe_c =
    Isolation_bound.safe_c_threshold ~env:env_grow ~k:50 ~target:1e-10
  in
  { joining_bound; delta_c; c_next = 125.0 +. delta_c; safe_c }

type equilibrium_row = {
  v : int;
  b1 : float option;
  b2 : float option;
  predicted_excess : float option;
}

let equilibria ?(scale = Scale.Standard) ?(f = 0.1) () =
  let n = Scale.n scale in
  List.map
    (fun v ->
      let env = Model.env ~n ~f ~v () in
      match Model.equilibria env with
      | Some (b1, b2) ->
          { v; b1 = Some b1; b2 = Some b2; predicted_excess = Some (b1 -. f) }
      | None -> { v; b1 = None; b2 = None; predicted_excess = None })
    (Scale.view_sizes scale)

let opt_cell = function Some x -> Report.float_cell x | None -> "none"

let print ?(scale = Scale.Standard) () =
  let w = worked_examples () in
  Printf.printf "== theory: worked examples (Section 3.3.1)\n";
  Printf.printf
    "  joining isolation bound (Eq.7, v=200, I=fn/4, f0=0.5): %.3e  (paper: < 1e-10)\n"
    w.joining_bound;
  Printf.printf
    "  growth bound delta_c (Eq.12, v=100, k=50, c0=125):     %.1f   (paper: >= 467)\n"
    w.delta_c;
  Printf.printf
    "  c at next reset:                                       %.1f   (paper: >= 592)\n"
    w.c_next;
  Printf.printf
    "  safe c threshold for Eq.8 < 1e-10:                     %.1f   (paper: ~585)\n"
    w.safe_c;
  Printf.printf "== theory: equilibria of Eq.16 (f=0.1, n=%d)\n" (Scale.n scale);
  let eq = equilibria ~scale () in
  let arr = Array.of_list eq in
  Report.print_table ~rows:(Array.length arr)
    [
      { Report.header = "v"; cell = (fun i -> string_of_int arr.(i).v) };
      { Report.header = "B1(stable)"; cell = (fun i -> opt_cell arr.(i).b1) };
      { Report.header = "B2(unstable)"; cell = (fun i -> opt_cell arr.(i).b2) };
      {
        Report.header = "B1-f";
        cell = (fun i -> opt_cell arr.(i).predicted_excess);
      };
    ]
