(* Quickstart: assemble a small Basalt network by hand on the simulation
   engine and consume the sampling service's output stream.

   Run with:  dune exec examples/quickstart.exe

   This example uses the library's low-level public API directly —
   engine, timers, and a [Basalt_assembly.Node] pairing each sampler
   with its sample stream — rather than the pre-packaged
   [Basalt_sim.Runner], to show what embedding the peer sampler in an
   application looks like. *)

module Engine = Basalt_engine.Engine
module Node_id = Basalt_proto.Node_id
module Basalt = Basalt_core.Basalt
module Node = Basalt_assembly.Node
module Config = Basalt_core.Config
module Sample_stream = Basalt_core.Sample_stream
module Rng = Basalt_prng.Rng

let n = 100

let () =
  let rng = Rng.create ~seed:7 in
  let engine : Basalt_proto.Message.t Engine.t = Engine.create ~rng ~n () in
  let config = Config.make ~v:16 ~k:4 () in

  (* Every node starts knowing ten random bootstrap peers. *)
  let bootstrap () =
    Array.init 10 (fun _ -> Node_id.of_int (Rng.int rng n))
  in

  (* Create one Basalt node per identifier, keeping its last 64 samples,
     and register its message handler with the engine. *)
  let sampler = Basalt.sampler ~config ~id_bound:n () in
  let nodes =
    Array.init n (fun i ->
        let send ~dst msg =
          Engine.send engine ~src:i ~dst:(Node_id.to_int dst) msg
        in
        Node.create
          ~stream:(Sample_stream.create ~capacity:64)
          (sampler ~id:(Node_id.of_int i) ~bootstrap:(bootstrap ()) ~rng ~send))
  in
  Array.iteri
    (fun i node ->
      Engine.register engine i (fun ~from msg ->
          Node.deliver node ~from:(Node_id.of_int from) msg))
    nodes;

  (* Drive the protocol: one exchange round per time unit per node, and a
     sampling tick every k/rho time units.  Node 0's stream is what the
     application reads. *)
  Array.iter
    (fun node ->
      let phase = Rng.float rng 1.0 in
      Engine.every engine ~phase ~interval:1.0 (fun () -> Node.round node);
      Engine.every engine ~phase:(phase +. 0.5)
        ~interval:(Config.refresh_interval config) (fun () ->
          ignore (Node.tick node)))
    nodes;
  let stream = Node.stream nodes.(0) in

  Engine.run_until engine 50.0;

  (* The service output: a continuous stream of (approximately) uniform
     random peers. *)
  Printf.printf "node 0 emitted %d samples in 50 time units\n"
    (Sample_stream.total stream);
  Printf.printf "most recent ten: %s\n"
    (String.concat ", "
       (List.map
          (fun p -> string_of_int (Node_id.to_int p))
          (Sample_stream.recent stream 10)));

  (* Sanity: samples should cover the id space roughly uniformly. *)
  let distinct =
    List.sort_uniq Int.compare
      (List.map Node_id.to_int
         (Sample_stream.recent stream (Sample_stream.retained stream)))
  in
  Printf.printf "distinct peers among the retained window: %d\n"
    (List.length distinct);
  Printf.printf "node 0's current view: %s\n"
    (String.concat ", "
       (Array.to_list
          (Array.map (fun p -> string_of_int (Node_id.to_int p))
             (Node.view nodes.(0)))));
  let stats = Engine.stats engine in
  Printf.printf "transport: %d messages sent, %d delivered\n"
    stats.Engine.sent stats.Engine.delivered
