(* What a simulated workload's output is checked on, and its digest.
   Floats are rendered with [%h] so the digest sees every bit. *)

module Runner = Basalt_sim.Runner
module Measurements = Basalt_sim.Measurements
module Engine = Basalt_engine.Engine
module Gossip_app = Basalt_experiments.Gossip_app

type t = {
  final : Measurements.point;
  transport : Engine.stats;
  bandwidth : Runner.bandwidth;
  sample_histogram : int array;
  summary : Gossip_app.summary option;
}

let of_result ?summary (r : Runner.result) =
  {
    final = r.Runner.final;
    transport = r.Runner.transport;
    bandwidth = r.Runner.bandwidth;
    sample_histogram = r.Runner.sample_histogram;
    summary;
  }

let render t =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  let opt = function Some x -> Printf.sprintf "%h" x | None -> "-" in
  let p = t.final in
  add "final %h %h %h %h %s %s %s\n" p.Measurements.time p.view_byz p.sample_byz
    p.isolated (opt p.clustering) (opt p.mean_path) (opt p.indegree_spread);
  let s = t.transport in
  add "transport %d %d %d %d %d %d %d %d\n" s.Engine.sent s.delivered s.dropped
    s.ignored s.events s.dup s.reordered s.partition_drops;
  let w = t.bandwidth in
  add "bandwidth %d %d %d %d %d\n" w.Runner.correct_messages w.correct_bytes
    w.adversary_messages w.adversary_bytes w.max_datagram;
  add "histogram";
  Array.iter (add " %d") t.sample_histogram;
  add "\n";
  (match t.summary with
  | Some m ->
      add "gossip %h %s %d %d\n" m.Gossip_app.delivered (opt m.t99) m.duplicates
        m.deliveries
  | None -> ());
  Buffer.contents b

let digest t = Digest.to_hex (Digest.string (render t))
