type color = Red | Blue

let color_equal a b =
  match (a, b) with Red, Red | Blue, Blue -> true | Red, Blue | Blue, Red -> false

let opposite = function Red -> Blue | Blue -> Red

let sample_size = 10
let alpha = 7
let beta = 12

type t = {
  mutable pref : color;
  mutable conf_red : int;
  mutable conf_blue : int;
  mutable last_success : color option;
  mutable streak : int;
  mutable decided : bool;
}

let create initial =
  {
    pref = initial;
    conf_red = 0;
    conf_blue = 0;
    last_success = None;
    streak = 0;
    decided = false;
  }

let preference t = t.pref
let decided t = t.decided
let decision t = if t.decided then Some t.pref else None
let confidence t = function Red -> t.conf_red | Blue -> t.conf_blue

let register_votes t votes =
  if not t.decided then begin
    let red = List.length (List.filter (color_equal Red) votes) in
    let blue = List.length votes - red in
    let winner =
      if red >= alpha then Some Red
      else if blue >= alpha then Some Blue
      else None
    in
    match winner with
    | None -> t.streak <- 0
    | Some c ->
        (match c with
        | Red -> t.conf_red <- t.conf_red + 1
        | Blue -> t.conf_blue <- t.conf_blue + 1);
        if confidence t c > confidence t (opposite c) then t.pref <- c;
        (match t.last_success with
        | Some prev when color_equal prev c -> t.streak <- t.streak + 1
        | Some _ | None ->
            t.last_success <- Some c;
            t.streak <- 1);
        if t.streak >= beta then t.decided <- true
  end
