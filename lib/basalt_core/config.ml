type t = {
  v : int;
  tau : float;
  rho : float;
  k : int;
  backend : Basalt_hashing.Rank.backend;
  evict_after_rounds : int option;
}

let make ?(v = 160) ?(tau = 1.0) ?(rho = 1.0) ?k
    ?(backend = Basalt_hashing.Rank.Cheap) ?evict_after_rounds () =
  let k = Option.value k ~default:(max 1 (v / 2)) in
  if v <= 0 then invalid_arg "Config.make: v must be positive";
  if k < 1 || Int.compare k v > 0 then
    invalid_arg "Config.make: k must be in [1, v]";
  (* Written as [not (x > 0.0)] so NaN fails the check too. *)
  if not (tau > 0.0) then invalid_arg "Config.make: tau must be positive";
  if not (rho > 0.0) then invalid_arg "Config.make: rho must be positive";
  (match evict_after_rounds with
  | Some r when r <= 0 ->
      invalid_arg "Config.make: evict_after_rounds must be positive"
  | Some _ | None -> ());
  { v; tau; rho; k; backend; evict_after_rounds }

let default = make ()
let refresh_interval c = float_of_int c.k /. c.rho
