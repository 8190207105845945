module Dag_network = Basalt_avalanche.Dag_network
module Network = Basalt_avalanche.Network
module Scenario = Basalt_sim.Scenario
module Report = Basalt_sim.Report

type row = {
  sampler : string;
  safety : bool;
  conflict_resolved : float;
  virtuous_accepted : float;
  committee_byz : float;
}

let dims scale =
  match scale with
  | Scale.Quick -> (100, 24, 150.0)
  | Scale.Standard -> (200, 40, 250.0)
  | Scale.Full -> (400, 60, 300.0)

let run ?(scale = Scale.Standard) () =
  let n, v, steps = dims scale in
  let samplers =
    [
      ("full-knowledge", Network.Full_knowledge);
      ( "basalt",
        Network.Service (Scenario.Basalt (Basalt_core.Config.make ~v ~k:(v / 4) ())) );
      ( "classic",
        Network.Service (Scenario.Classic (Basalt_sps.Classic.config ~l:v ())) );
    ]
  in
  List.map
    (fun (name, sampling) ->
      let r = Dag_network.run (Dag_network.config ~n ~sampling ~steps) in
      {
        sampler = name;
        safety = r.Dag_network.safety;
        conflict_resolved = r.Dag_network.conflict_resolved_fraction;
        virtuous_accepted = r.Dag_network.virtuous_accepted_fraction;
        committee_byz = r.Dag_network.committee_byz;
      })
    samplers

let columns rows =
  let arr = Array.of_list rows in
  ( Array.length arr,
    [
      { Report.header = "sampler"; cell = (fun i -> arr.(i).sampler) };
      {
        Report.header = "safety";
        cell = (fun i -> string_of_bool arr.(i).safety);
      };
      {
        Report.header = "conflict_resolved";
        cell = (fun i -> Report.float_cell arr.(i).conflict_resolved);
      };
      {
        Report.header = "virtuous_accepted";
        cell = (fun i -> Report.float_cell arr.(i).virtuous_accepted);
      };
      {
        Report.header = "committee_byz";
        cell = (fun i -> Report.float_cell arr.(i).committee_byz);
      };
    ] )

let print ?(scale = Scale.Standard) ?csv () =
  let n, v, _ = dims scale in
  Printf.printf
    "== dag extension: Avalanche DAG consensus with a double-spend (n=%d, \
     v=%d, f=0.15, F=10)\n"
    n v;
  let rows, cols = columns (run ~scale ()) in
  Output.emit ?csv ~rows cols
