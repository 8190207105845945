type t = Quick | Standard | Full

let of_string = function
  | "quick" -> Ok Quick
  | "standard" -> Ok Standard
  | "full" -> Ok Full
  | s -> Error (Printf.sprintf "unknown scale %S (quick|standard|full)" s)

let to_string = function
  | Quick -> "quick"
  | Standard -> "standard"
  | Full -> "full"

let n = function Quick -> 300 | Standard -> 1000 | Full -> 10_000
let v = function Quick -> 40 | Standard -> 100 | Full -> 160
let steps = function Quick -> 100.0 | Standard -> 200.0 | Full -> 200.0
(* One seed per run at the larger presets keeps the full suite's wall
   time reasonable on one core; the determinism of the runner means any
   point can be re-averaged over more seeds by a scenario file's
   (base (seeds ...)), run with `repro matrix FILE`. *)
let seeds = function Quick -> [ 1 ] | Standard -> [ 1 ] | Full -> [ 1 ]

let view_sizes = function
  | Quick -> [ 20; 30; 40; 60 ]
  | Standard -> [ 30; 50; 75; 100; 150; 200 ]
  | Full -> [ 50; 75; 100; 125; 160; 200 ]

let byzantine_fractions = function
  | Quick -> [ 0.05; 0.1; 0.2; 0.3 ]
  | Standard | Full -> [ 0.05; 0.1; 0.15; 0.2; 0.25; 0.3; 0.4 ]

let forces = function
  | Quick -> [ 1.0; 10.0; 100.0 ]
  | Standard | Full -> [ 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0 ]

let sybil_networks scale =
  let honest = n scale * 3 / 4 in
  List.map
    (fun m ->
      let sybils = honest * m / 8 in
      (honest + sybils, float_of_int sybils /. float_of_int (honest + sybils)))
    [ 1; 3; 8; 16 ]

let sampling_rates = function
  | Quick -> [ 0.5; 1.0; 2.0; 4.0 ]
  | Standard | Full -> [ 0.25; 0.5; 1.0; 2.0; 4.0; 8.0 ]
