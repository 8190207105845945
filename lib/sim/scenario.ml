type protocol =
  | Basalt of Basalt_core.Config.t
  | Brahms of Basalt_brahms.Brahms_config.t
  | Sps of Basalt_sps.Sps.config
  | Classic of Basalt_sps.Classic.config

let protocol_names = [ "basalt"; "brahms"; "sps"; "classic" ]

let protocol_of_name ?backend ?rho ~v = function
  | "basalt" -> Ok (Basalt (Basalt_core.Config.make ~v ?rho ?backend ()))
  | "brahms" -> Ok (Brahms (Basalt_brahms.Brahms_config.make ~l:v ?rho ()))
  | "sps" -> Ok (Sps (Basalt_sps.Sps.config ~l:v ()))
  | "classic" -> Ok (Classic (Basalt_sps.Classic.config ~l:v ()))
  | name ->
      Error
        (Printf.sprintf "unknown protocol %S (expected %s)" name
           (String.concat "|" protocol_names))

type t = {
  name : string;
  n : int;
  f : float;
  force : float;
  strategy : Basalt_adversary.Adversary.strategy;
  protocol : protocol;
  steps : float;
  bootstrap_size : int;
  bootstrap_f0 : float;
  seed : int;
  measure_every : float;
  graph_metrics : bool;
  sample_window : int;
  churn : Churn.t option;
  latency : Basalt_engine.Link.Latency.t;
  loss : Basalt_engine.Link.Loss.t;
  fault : Basalt_engine.Fault.t option;
}

let make ?(name = "base") ?(n = 1000) ?(f = 0.1) ?(force = 10.0)
    ?(strategy = Basalt_adversary.Adversary.Flood)
    ?(protocol = Basalt Basalt_core.Config.default) ?(steps = 200.0)
    ?bootstrap_size ?(seed = 42) ?(measure_every = 1.0)
    ?(graph_metrics = false) ?(sample_window = 200) ?churn
    ?(latency = Basalt_engine.Link.Latency.Zero)
    ?(loss = Basalt_engine.Link.Loss.None) ?fault () =
  let bootstrap_size = Option.value bootstrap_size ~default:(max 10 (n / 20)) in
  if n <= 0 then invalid_arg "Scenario.make: n must be positive";
  (* The float checks state what a valid value passes, so NaN fails. *)
  if not (f >= 0.0 && f < 1.0) then
    invalid_arg "Scenario.make: f out of [0,1)";
  if not (force >= 0.0) then invalid_arg "Scenario.make: negative force";
  if not (steps > 0.0) then
    invalid_arg "Scenario.make: steps must be positive";
  if bootstrap_size <= 0 then
    invalid_arg "Scenario.make: bootstrap_size must be positive";
  if not (measure_every > 0.0) then
    invalid_arg "Scenario.make: measure_every must be positive";
  if sample_window <= 0 then
    invalid_arg "Scenario.make: sample_window must be positive";
  {
    name;
    n;
    f;
    force;
    strategy;
    protocol;
    steps;
    bootstrap_size;
    bootstrap_f0 = f;
    seed;
    measure_every;
    graph_metrics;
    sample_window;
    churn;
    latency;
    loss;
    fault;
  }

let with_seed s seed = { s with seed }
let num_byzantine s = int_of_float (Float.round (s.f *. float_of_int s.n))
let num_correct s = s.n - num_byzantine s

let tau s =
  match s.protocol with
  | Basalt c -> c.Basalt_core.Config.tau
  | Brahms _ | Sps _ | Classic _ -> 1.0

let rho s =
  match s.protocol with
  | Basalt c -> c.Basalt_core.Config.rho
  | Brahms c -> c.Basalt_brahms.Brahms_config.rho
  | Sps _ | Classic _ -> 1.0

let refresh_interval s =
  match s.protocol with
  | Basalt c -> Basalt_core.Config.refresh_interval c
  | Brahms c -> Basalt_brahms.Brahms_config.refresh_interval c
  | Sps _ | Classic _ -> 1.0

let view_size s =
  match s.protocol with
  | Basalt c -> c.Basalt_core.Config.v
  | Brahms c -> c.Basalt_brahms.Brahms_config.l
  | Sps c -> c.Basalt_sps.Sps.l
  | Classic c -> c.Basalt_sps.Classic.l

let maker ?obs s =
  match s.protocol with
  | Basalt c -> Basalt_core.Basalt.sampler ~config:c ?obs ~id_bound:s.n ()
  | Brahms c -> Basalt_brahms.Brahms.sampler ~config:c ?obs ()
  | Sps c -> Basalt_sps.Sps.sampler ~config:c ?obs ()
  | Classic c -> Basalt_sps.Classic.sampler ~config:c ?obs ()

let protocol_name s =
  match s.protocol with
  | Basalt _ -> "basalt"
  | Brahms _ -> "brahms"
  | Sps _ -> "sps"
  | Classic _ -> "classic"
