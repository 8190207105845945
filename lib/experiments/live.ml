module Deployment = Basalt_avalanche.Deployment
module Report = Basalt_sim.Report

type row = {
  sampler : string;
  malicious_proportion : float;
  paper_value : float;
}

let config_of scale =
  match scale with
  | Scale.Quick -> Deployment.config ~n:266 ~adversarial:50 ~v:40 ~steps:150.0
  | Scale.Standard -> Deployment.config ~n:532 ~adversarial:100 ~v:100 ~steps:600.0
  | Scale.Full ->
      (* The paper's 10-hour run at one exchange per 10 s. *)
      Deployment.config ~n:532 ~adversarial:100 ~v:100 ~steps:3600.0

let run ?(scale = Scale.Standard) () =
  let result = Deployment.run (config_of scale) in
  ( [
      {
        sampler = "basalt-derived";
        malicious_proportion = result.Deployment.basalt_proportion;
        paper_value = 0.175;
      };
      {
        sampler = "full-knowledge";
        malicious_proportion = result.Deployment.full_knowledge_proportion;
        paper_value = 0.184;
      };
      {
        sampler = "ground-truth";
        malicious_proportion = result.Deployment.true_proportion;
        paper_value = 0.188;
      };
    ],
    result )

let columns rows =
  let arr = Array.of_list rows in
  ( Array.length arr,
    [
      { Report.header = "sampler"; cell = (fun i -> arr.(i).sampler) };
      {
        Report.header = "malicious_prop";
        cell = (fun i -> Report.float_cell arr.(i).malicious_proportion);
      };
      {
        Report.header = "paper";
        cell = (fun i -> Report.float_cell arr.(i).paper_value);
      };
    ] )

let print ?(scale = Scale.Standard) ?csv () =
  let rows, result = run ~scale () in
  Printf.printf
    "== live deployment (simulated; eclipse on witness, %d samples%s)\n"
    result.Deployment.witness_samples
    (if result.Deployment.witness_isolated then ", WITNESS ISOLATED" else "");
  let n, cols = columns rows in
  Output.emit ?csv ~rows:n cols
