module Scenario = Basalt_sim.Scenario
module Runner = Basalt_sim.Runner
module Rng = Basalt_prng.Rng

type config = { n : int; adversarial : int; v : int; steps : float }

(* The eclipse's push force and the run's seed have one setting
   (DESIGN.md §1). *)
let force = 10.0
let seed = 42

let config ~n ~adversarial ~v ~steps =
  if n <= 0 then invalid_arg "Deployment.config: n must be positive";
  if adversarial < 0 || adversarial >= n then
    invalid_arg "Deployment.config: adversarial out of [0, n)";
  if v <= 0 then invalid_arg "Deployment.config: v must be positive";
  if steps <= 0.0 then invalid_arg "Deployment.config: steps must be positive";
  { n; adversarial; v; steps }

type result = {
  basalt_proportion : float;
  full_knowledge_proportion : float;
  true_proportion : float;
  witness_samples : int;
  witness_isolated : bool;
}

let run c =
  let f = float_of_int c.adversarial /. float_of_int c.n in
  let witness = Basalt_proto.Node_id.of_int 0 in
  let scenario =
    Scenario.make ~name:"live-deployment" ~n:c.n ~f ~force
      ~strategy:(Basalt_adversary.Adversary.Eclipse witness)
      ~protocol:(Scenario.Basalt (Basalt_core.Config.make ~v:c.v ()))
      ~steps:c.steps ~seed
      ~sample_window:4096 ()
  in
  let r = Runner.run scenario in
  let outcome = r.Runner.per_node.(0) in
  (* Full-knowledge baseline: the same number of samples, drawn uniformly
     from the whole membership. *)
  let rng = Rng.create ~seed:(seed + 1) in
  let draws = max 1 outcome.Runner.node_samples_total in
  let malicious_draws = ref 0 in
  for _ = 1 to draws do
    if Rng.int rng c.n >= c.n - c.adversarial then incr malicious_draws
  done;
  {
    basalt_proportion = outcome.Runner.node_sample_byz;
    full_knowledge_proportion =
      float_of_int !malicious_draws /. float_of_int draws;
    true_proportion = f;
    witness_samples = outcome.Runner.node_samples_total;
    witness_isolated = outcome.Runner.node_isolated;
  }
