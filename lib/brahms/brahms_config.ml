type t = { l : int; rho : float; k : int }

let make ?(l = 160) ?(rho = 1.0) ?k () =
  let k = Option.value k ~default:(max 1 (l / 2)) in
  if l <= 0 then invalid_arg "Brahms_config.make: l must be positive";
  if k < 1 || Int.compare k l > 0 then
    invalid_arg "Brahms_config.make: k must be in [1, l]";
  if rho <= 0.0 then invalid_arg "Brahms_config.make: rho must be positive";
  { l; rho; k }

let default = make ()
let refresh_interval c = float_of_int c.k /. c.rho
