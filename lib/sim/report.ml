type column = { header : string; cell : int -> string }

let float_cell x = if Float.is_nan x then "-" else Printf.sprintf "%.4f" x

let freeze ~rows cols =
  List.map
    (fun c ->
      let cells = Array.init rows c.cell in
      { header = c.header; cell = Array.get cells })
    cols

let table ~rows cols =
  let cols = freeze ~rows cols in
  let widths =
    List.map
      (fun c ->
        let w = ref (String.length c.header) in
        for i = 0 to rows - 1 do
          w := max !w (String.length (c.cell i))
        done;
        !w)
      cols
  in
  let buf = Buffer.create 1024 in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let render_row get =
    List.iteri
      (fun j (c, w) ->
        if j > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad (get c) w))
      (List.combine cols widths);
    Buffer.add_char buf '\n'
  in
  render_row (fun c -> c.header);
  List.iteri
    (fun j w ->
      if j > 0 then Buffer.add_string buf "  ";
      Buffer.add_string buf (String.make w '-'))
    widths;
  Buffer.add_char buf '\n';
  for i = 0 to rows - 1 do
    render_row (fun c -> c.cell i)
  done;
  Buffer.contents buf

let print_table ~rows cols = print_string (table ~rows cols)

let csv ~rows cols =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (String.concat "," (List.map (fun c -> c.header) cols));
  Buffer.add_char buf '\n';
  for i = 0 to rows - 1 do
    Buffer.add_string buf
      (String.concat "," (List.map (fun c -> c.cell i) cols));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let write_csv ~path ~rows cols =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (csv ~rows cols))

let sparkline ?(width = 60) xs =
  let levels = [| " "; "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |] in
  let valid = Array.to_list xs |> List.filter (fun x -> not (Float.is_nan x)) in
  match valid with
  | [] -> ""
  | _ ->
      let lo = List.fold_left Float.min infinity valid in
      let hi = List.fold_left Float.max neg_infinity valid in
      let n = Array.length xs in
      let width = min width n in
      let bucket i =
        (* Average the slice of xs mapped to output cell i. *)
        let first = i * n / width and last = (((i + 1) * n) / width) - 1 in
        let sum = ref 0.0 and count = ref 0 in
        for j = first to max first last do
          if not (Float.is_nan xs.(j)) then begin
            sum := !sum +. xs.(j);
            incr count
          end
        done;
        if !count = 0 then Float.nan else !sum /. float_of_int !count
      in
      let buf = Buffer.create (width * 3) in
      for i = 0 to width - 1 do
        let x = bucket i in
        if Float.is_nan x then Buffer.add_string buf levels.(0)
        else begin
          let scaled =
            if hi = lo then 1.0 else 1.0 +. (7.0 *. (x -. lo) /. (hi -. lo))
          in
          Buffer.add_string buf levels.(int_of_float (Float.round scaled))
        end
      done;
      Buffer.contents buf

let series_columns series =
  let points = Array.of_list (Measurements.points series) in
  let base =
    [
      { header = "time"; cell = (fun i -> float_cell points.(i).Measurements.time) };
      {
        header = "view_byz";
        cell = (fun i -> float_cell points.(i).Measurements.view_byz);
      };
      {
        header = "sample_byz";
        cell = (fun i -> float_cell points.(i).Measurements.sample_byz);
      };
      {
        header = "isolated";
        cell = (fun i -> float_cell points.(i).Measurements.isolated);
      };
    ]
  in
  let optional header field =
    if
      Array.exists (fun p -> Option.is_some (field p)) points
    then
      [
        {
          header;
          cell =
            (fun i ->
              match field points.(i) with
              | Some x -> float_cell x
              | None -> "-");
        };
      ]
    else []
  in
  (* Instrument columns: one per metric name, taken from the last point
     so the header set covers everything registered during the run (the
     snapshot can only grow).  Registration order keeps the column order
     — and thus the rendered table — identical at any -j N. *)
  let metric_cell x =
    if Float.is_nan x then "-"
    else if Float.is_integer x && Float.abs x < 1e15 then
      Printf.sprintf "%.0f" x
    else Printf.sprintf "%.4f" x
  in
  let metric_names =
    if Array.length points = 0 then []
    else
      match points.(Array.length points - 1).Measurements.metrics with
      | Some m -> List.map fst m
      | None -> []
  in
  let metric_columns =
    List.map
      (fun name ->
        {
          header = name;
          cell =
            (fun i ->
              match points.(i).Measurements.metrics with
              | Some m -> (
                  match List.assoc_opt name m with
                  | Some x -> metric_cell x
                  | None -> "-")
              | None -> "-");
        })
      metric_names
  in
  base
  @ optional "clustering" (fun p -> p.Measurements.clustering)
  @ optional "mean_path" (fun p -> p.Measurements.mean_path)
  @ optional "indeg_spread" (fun p -> p.Measurements.indegree_spread)
  @ metric_columns
