type exponential = { y0 : float; y_inf : float; tau : float; r_square : float }

let linear points =
  let n = List.length points in
  if n < 2 then None
  else begin
    let fn = float_of_int n in
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 points in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
    let denom = (fn *. sxx) -. (sx *. sx) in
    if Float.abs denom < 1e-12 then None
    else begin
      let slope = ((fn *. sxy) -. (sx *. sy)) /. denom in
      let intercept = (sy -. (slope *. sx)) /. fn in
      Some (slope, intercept)
    end
  end

let r_square_of points ~slope ~intercept =
  let n = float_of_int (List.length points) in
  let mean_y = List.fold_left (fun a (_, y) -> a +. y) 0.0 points /. n in
  let ss_tot =
    List.fold_left (fun a (_, y) -> a +. ((y -. mean_y) ** 2.0)) 0.0 points
  in
  let ss_res =
    List.fold_left
      (fun a (x, y) ->
        let fitted = (slope *. x) +. intercept in
        a +. ((y -. fitted) ** 2.0))
      0.0 points
  in
  if ss_tot < 1e-12 then 1.0 else 1.0 -. (ss_res /. ss_tot)

let exponential_decay series =
  let n = List.length series in
  if n < 4 then None
  else begin
    let tail_count = max 1 (int_of_float (0.25 *. float_of_int n)) in
    let tail = List.filteri (fun i _ -> i >= n - tail_count) series in
    let y_inf =
      List.fold_left (fun a (_, y) -> a +. y) 0.0 tail
      /. float_of_int (List.length tail)
    in
    (* Log-linearise the gap; keep only points decisively off the
       plateau. *)
    let log_points =
      List.filter_map
        (fun (t, y) ->
          let gap = Float.abs (y -. y_inf) in
          if gap > 1e-9 then Some (t, Float.log gap) else None)
        (List.filteri (fun i _ -> i < n - tail_count) series)
    in
    match linear log_points with
    | None -> None
    | Some (slope, intercept) ->
        if slope >= 0.0 then None (* not decaying *)
        else begin
          let tau = -1.0 /. slope in
          let gap0 = Float.exp intercept in
          let y0 =
            match series with
            | (_, first_y) :: _ ->
                if first_y >= y_inf then y_inf +. gap0 else y_inf -. gap0
            | [] -> y_inf
          in
          Some
            {
              y0;
              y_inf;
              tau;
              r_square = r_square_of log_points ~slope ~intercept;
            }
        end
  end

let half_life fit = fit.tau *. Float.log 2.0
