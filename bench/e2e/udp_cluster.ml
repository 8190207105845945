(* A cluster of real UDP nodes on 127.0.0.1 sharing one event loop, with
   a ring bootstrap as in examples/local_udp.ml.  Rounds fire on timers,
   so the offered load is fixed (an open loop): nodes / tau rounds per
   second whatever the cost of serving them. *)

module Endpoint = Basalt_net.Endpoint
module Event_loop = Basalt_net.Event_loop
module Udp_node = Basalt_net.Udp_node
module Obs = Basalt_obs.Obs
module Config = Basalt_core.Config
module Sample_stream = Basalt_core.Sample_stream
module Stats = Basalt_analysis.Stats

type params = {
  nodes : int;
  v : int;
  k : int;
  tau : float;  (** Seconds between rounds; also 1/rho. *)
  warmup : float;  (** Seconds run before the measured window. *)
  window : float;  (** Seconds measured. *)
}

(* The bench's own timer: how late it fires is how late the loop runs
   the round timers that generate the load. *)
let probe_interval = 0.001

(* Free loopback ports, learnt by binding throw-away sockets.  They are
   bound without SO_REUSEADDR: [Udp_node] sets it, and under it the
   kernel may hand the same ephemeral port to two sockets. *)
let free_ports n =
  let socks = List.init n (fun _ -> Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0) in
  let ports =
    List.map
      (fun s ->
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        match Unix.getsockname s with
        | Unix.ADDR_INET (_, port) -> port
        | Unix.ADDR_UNIX _ -> invalid_arg "free_ports")
      socks
  in
  List.iter Unix.close socks;
  Array.of_list ports

(* One node per port, each knowing only its two ring neighbours. *)
let start ?obs p ~loop ~seed ports =
  let config = Config.make ~v:p.v ~k:p.k ~tau:p.tau ~rho:(1.0 /. p.tau) () in
  let endpoints = Array.map (Endpoint.make "127.0.0.1") ports in
  let n = p.nodes in
  Array.init n (fun i ->
      Udp_node.create ?obs ~config ~loop ~listen:endpoints.(i)
        ~bootstrap:[ endpoints.((i + 1) mod n); endpoints.((i + n - 1) mod n) ]
        ~seed:((seed * 1024) + i) ())

(* Seconds to create and bind the whole cluster. *)
let setup p ~seed =
  let loop = Event_loop.create ~clock:Clock.now_s () in
  let ports = free_ports p.nodes in
  let t0 = Clock.now_ns () in
  let nodes = start p ~loop ~seed ports in
  let dt = float_of_int (Clock.now_ns () - t0) *. 1e-9 in
  Array.iter Udp_node.close nodes;
  dt

type window = {
  wall : float;
  cpu : Clock.cpu;
  datagrams : int;  (** Received by all nodes in the window. *)
  rounds : int;  (** Exchange rounds fired in the window. *)
  pulls : int;  (** Pulls sent in the window. *)
  retries : int;
  decode_errors : int;  (** Over the whole run. *)
  minor_words : float;
  major_collections : int;
  lag_p50 : float;  (** Probe-timer lateness in the window, seconds. *)
  lag_p99 : float;
  rtt_p50 : float;  (** Pull round trip since start, seconds. *)
  rtt_p99 : float;
  min_distinct : int;  (** Fewest distinct peers in any node's view. *)
  min_samples : int;  (** Fewest samples any node emitted. *)
}

let run p ~seed =
  let obs = Obs.create ~clock:Clock.now_s () in
  let loop = Event_loop.create ~clock:Clock.now_s () in
  let nodes = start ~obs p ~loop ~seed (free_ports p.nodes) in
  let lags = Array.make (int_of_float (p.window /. probe_interval) + 1) 0.0 in
  let nlags = ref 0 in
  let measuring = ref false in
  let expected = ref (Clock.now_s () +. probe_interval) in
  Event_loop.every loop ~interval:probe_interval (fun () ->
      let t = Clock.now_s () in
      if !measuring && !nlags < Array.length lags then begin
        lags.(!nlags) <- t -. !expected;
        incr nlags
      end;
      expected := t +. probe_interval);
  let sum f = Array.fold_left (fun acc nd -> acc + f (Udp_node.stats nd)) 0 nodes in
  let rounds = Obs.counter obs "basalt.rounds" in
  let pulls = Obs.counter obs "basalt.pulls_sent" in
  let rtt = Obs.sketch obs "basalt.pull_rtt" in
  Event_loop.run_for loop p.warmup;
  let d0 = sum (fun s -> s.Udp_node.datagrams_in) in
  let r0 = Obs.Counter.value rounds and p0 = Obs.Counter.value pulls in
  let retries0 = sum (fun s -> s.Udp_node.retries) in
  let g0 = Gc.quick_stat () in
  let c0 = Clock.cpu () in
  let w0 = Clock.now_ns () in
  measuring := true;
  Event_loop.run_for loop p.window;
  measuring := false;
  let wall = float_of_int (Clock.now_ns () - w0) *. 1e-9 in
  let cpu = Clock.cpu_since c0 in
  let g1 = Gc.quick_stat () in
  let lag = Array.sub lags 0 !nlags in
  let distinct nd =
    List.length
      (List.sort_uniq String.compare (List.map Endpoint.to_string (Udp_node.view nd)))
  in
  let fold_min f = Array.fold_left (fun acc nd -> min acc (f nd)) max_int nodes in
  let w =
    {
      wall;
      cpu;
      datagrams = sum (fun s -> s.Udp_node.datagrams_in) - d0;
      rounds = Obs.Counter.value rounds - r0;
      pulls = Obs.Counter.value pulls - p0;
      retries = sum (fun s -> s.Udp_node.retries) - retries0;
      decode_errors = sum (fun s -> s.Udp_node.decode_errors);
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      lag_p50 = Stats.percentile lag 0.5;
      lag_p99 = Stats.percentile lag 0.99;
      rtt_p50 = Obs.Sketch.quantile rtt 0.5;
      rtt_p99 = Obs.Sketch.quantile rtt 0.99;
      min_distinct = fold_min distinct;
      min_samples = fold_min (fun nd -> Sample_stream.total (Udp_node.samples nd));
    }
  in
  Array.iter Udp_node.close nodes;
  w

(* The window's output is correct when nothing failed to decode and
   every node ended with a mixed view and a running sample stream. *)
let check p w =
  w.decode_errors = 0
  && w.min_distinct >= min (p.v / 2) (p.nodes - 1)
  && w.min_samples > 0
  && w.datagrams > 0 && w.rounds > 0
