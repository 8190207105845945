module Node_id = Basalt_proto.Node_id
module Engine = Basalt_engine.Engine
module Rng = Basalt_prng.Rng
module Scenario = Basalt_sim.Scenario
module Sample_stream = Basalt_core.Sample_stream
module Adversary = Basalt_adversary.Adversary
module Node = Basalt_assembly.Node

type sampling = Service of Scenario.protocol | Full_knowledge

type 'm t = {
  engine : 'm Engine.t;
  n : int;
  q : int;
  node_rng : Rng.t;
  committee_rng : Rng.t;
  nodes : Node.t array option;  (* [None] under [Full_knowledge] *)
  adversary : Adversary.t option;
}

let create ~n ~f ~force ~adversary_v ~steps ~seed ~wrap sampling =
  let master = Rng.create ~seed in
  let engine_rng = Rng.split master in
  let node_rng = Rng.split master in
  let adversary_rng = Rng.split master in
  let bootstrap_rng = Rng.split master in
  let committee_rng = Rng.split master in
  let num_byz = int_of_float (Float.round (f *. float_of_int n)) in
  let q = n - num_byz in
  let engine = Engine.create ~rng:engine_rng ~n () in
  let nodes =
    match sampling with
    | Full_knowledge -> None
    | Service protocol ->
        let scenario = Scenario.make ~n ~f ~protocol ~steps ~seed () in
        let maker = Scenario.maker scenario in
        let streams =
          Array.init q (fun _ -> Sample_stream.create ~capacity:256)
        in
        let make i =
          let send ~dst m =
            Engine.send engine ~src:i ~dst:(Node_id.to_int dst) (wrap m)
          in
          (* A small random mixed bootstrap sample. *)
          let bootstrap =
            Array.init (max 10 (n / 20)) (fun _ ->
                Node_id.of_int (Rng.int bootstrap_rng n))
          in
          Node.create ~stream:streams.(i)
            (maker ~id:(Node_id.of_int i) ~bootstrap ~rng:node_rng ~send)
        in
        let nodes = Array.init q make in
        let tau = Scenario.tau scenario in
        let refresh = Scenario.refresh_interval scenario in
        for i = 0 to q - 1 do
          let node = nodes.(i) in
          let phase = Rng.float node_rng tau in
          Engine.every engine ~phase ~interval:tau (fun () -> Node.round node);
          Engine.every engine
            ~phase:(phase +. Rng.float node_rng refresh)
            ~interval:refresh
            (fun () -> ignore (Node.tick node))
        done;
        Some nodes
  in
  let adversary =
    if num_byz = 0 then None
    else
      let send ~src ~dst m =
        Engine.send engine ~src:(Node_id.to_int src) ~dst:(Node_id.to_int dst)
          (wrap m)
      in
      let adv =
        Adversary.create ~rng:adversary_rng
          ~malicious:(Array.init num_byz (fun i -> Node_id.of_int (q + i)))
          ~correct:(Array.init q Node_id.of_int)
          ~v:adversary_v ~force ~send ()
      in
      Engine.every engine ~interval:1.0 (fun () -> Adversary.on_round adv);
      Some adv
  in
  { engine; n; q; node_rng; committee_rng; nodes; adversary }

let engine t = t.engine
let correct t = t.q
let node_rng t = t.node_rng

let deliver t u ~from msg =
  if u < t.q then
    match t.nodes with
    | Some nodes -> Node.deliver nodes.(u) ~from:(Node_id.of_int from) msg
    | None -> ()
  else
    match t.adversary with
    | Some adv ->
        Adversary.on_message adv ~victim_reply:true ~from:(Node_id.of_int from)
          ~to_:(Node_id.of_int u) msg
    | None -> ()

let committee t i ~k =
  match t.nodes with
  | Some nodes ->
      Sample_stream.draw (Node.stream nodes.(i)) t.committee_rng ~k
  | None -> Array.init k (fun _ -> Node_id.of_int (Rng.int t.committee_rng t.n))
