module Report = Basalt_sim.Report

let line s =
  print_string s;
  print_newline ()

let emit ?csv ~rows cols =
  let cols = Report.freeze ~rows cols in
  Report.print_table ~rows cols;
  match csv with
  | None -> ()
  | Some path ->
      Report.write_csv ~path ~rows cols;
      Printf.printf "(csv written to %s)\n" path
