(* The four workloads, and what a child process can do with one: time
   its set-up, run it untraced, run it through the traced copy, or run it
   with the instrument registry on.  Each returns named numbers, plus an
   output digest for the simulated workloads.  Sizes are chosen so that
   one instance takes one to three seconds and at most a few hundred MB
   on a 2-core host, so that a twenty-second measurement holds several
   instances. *)

module Scenario = Basalt_sim.Scenario
module Runner = Basalt_sim.Runner
module Gossip_app = Basalt_experiments.Gossip_app
module Config = Basalt_core.Config
module Brahms_config = Basalt_brahms.Brahms_config
module Stats = Basalt_analysis.Stats

type sim = {
  scenario : steps:float -> seed:int -> Scenario.t;
  steps : float;
  gossip : Gossip_app.params option;
}

type kind = Sim of sim | Udp of Udp_cluster.params

type t = {
  name : string;
  kind : kind;
  pin : string option;  (** Output digest at seed 42. *)
}

(* [repro]'s quick preset, run to its end: with k=20 and rho=1 a node
   resets half its slots every 20 time units, so in 100 units each node
   draws five sample ticks and the gossip app's publishes (from t=40)
   ride on meshes already rebuilt twice. *)
let basalt_gossip ?(n = 300) ?(steps = 100.0) ?(publishes = 20) () =
  {
    name = "basalt-gossip-n300";
    kind =
      Sim
        {
          scenario =
            (fun ~steps ~seed ->
              Scenario.make ~name:"basalt-gossip" ~n
                ~protocol:(Scenario.Basalt (Config.make ~v:40 ~k:20 ()))
                ~steps ~seed ());
          steps;
          gossip =
            Some (Gossip_app.params ~publishes ~warmup_frac:0.4 ~payload_bytes:64 ());
        };
    pin = None;
  }

let basalt_bootstrap ?(n = 3000) ?(steps = 2.0) () =
  {
    name = "basalt-bootstrap-n3k";
    kind =
      Sim
        {
          scenario =
            (fun ~steps ~seed ->
              Scenario.make ~name:"basalt-bootstrap" ~n
                ~protocol:(Scenario.Basalt (Config.make ~v:160 ~k:80 ()))
                ~bootstrap_size:200 ~steps ~seed ());
          steps;
          gossip = None;
        };
    pin = None;
  }

let brahms ?(n = 20_000) ?(steps = 3.0) () =
  {
    name = "brahms-n20k";
    kind =
      Sim
        {
          scenario =
            (fun ~steps ~seed ->
              Scenario.make ~name:"brahms" ~n
                ~protocol:(Scenario.Brahms (Brahms_config.make ~l:16 ()))
                ~bootstrap_size:64 ~steps ~seed ());
          steps;
          gossip = None;
        };
    pin = None;
  }

let udp ?(nodes = 64) ?(warmup = 0.5) ?(window = 1.5) () =
  {
    name = "udp-loopback-k64";
    kind = Udp { Udp_cluster.nodes; v = 16; k = 4; tau = 0.005; warmup; window };
    pin = None;
  }

(* A pinned digest changes only when the program's output does. *)
let all =
  let pin d w = { w with pin = Some d } in
  [
    pin "3836aa18a904305dbda314ca1adc4980" (basalt_gossip ());
    pin "431eabeb92e045ce262bcac42cfb8f68" (basalt_bootstrap ());
    pin "0dc3f7d7e75b6fd4a93e1e4b65024cb2" (brahms ());
    udp ();
  ]

(* The same workloads at test size. *)
let toy =
  [
    basalt_gossip ~n:200 ~steps:25.0 ~publishes:4 ();
    basalt_bootstrap ~n:200 ~steps:3.0 ();
    brahms ~n:200 ~steps:10.0 ();
    udp ~nodes:4 ~warmup:0.5 ~window:0.5 ();
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* --- What a child process does --------------------------------------- *)

type result = { values : (string * float) list; digest : string option }

let seconds_since t0 = float_of_int (Clock.now_ns () - t0) *. 1e-9

let untraced sim s =
  match sim.gossip with
  | None -> Outcome.of_result (Runner.run s)
  | Some params ->
      let r, summary = Gossip_app.run ~params s in
      Outcome.of_result ~summary r

(* Set-ups shorter than a scheduler time slice (the UDP cluster's few
   milliseconds, the small simulation's tens) are repeated within the
   child, until [setup_budget_s] is spent or [max_setups] are done, and
   their median is reported. *)
let setup_budget_s = 0.25
let max_setups = 25

let setup w ~seed =
  let once () =
    match w.kind with
    | Sim sim ->
        let s = sim.scenario ~steps:1e-9 ~seed in
        let t0 = Clock.now_ns () in
        ignore (untraced sim s : Outcome.t);
        seconds_since t0
    | Udp p -> Udp_cluster.setup p ~seed
  in
  let t0 = Clock.now_ns () in
  let rec go acc =
    let acc = once () :: acc in
    if List.length acc < max_setups && seconds_since t0 < setup_budget_s then go acc else acc
  in
  { values = [ ("setup_s", Stats.median (Array.of_list (go []))) ]; digest = None }

let heap_values () =
  let g = Gc.quick_stat () in
  [
    ("top_heap_words", float_of_int g.Gc.top_heap_words);
    ("major_collections", float_of_int g.Gc.major_collections);
  ]

let run w ~seed =
  match w.kind with
  | Sim sim ->
      let s = sim.scenario ~steps:sim.steps ~seed in
      let words0 = Gc.minor_words () in
      let c0 = Clock.cpu () in
      let t0 = Clock.now_ns () in
      let o = untraced sim s in
      let wall = seconds_since t0 in
      let cpu = Clock.cpu_since c0 in
      let words = Gc.minor_words () -. words0 in
      let gossip =
        match o.Outcome.summary with
        | Some m ->
            [
              ("deliveries", float_of_int m.Gossip_app.deliveries);
              ("duplicates", float_of_int m.duplicates);
            ]
        | None -> []
      in
      {
        values =
          [
            ("wall_s", wall);
            ("cpu_user_s", cpu.Clock.user);
            ("cpu_sys_s", cpu.sys);
            ("minor_words", words);
            ("node_rounds", float_of_int (Scenario.num_correct s) *. s.Scenario.steps);
            ("nodes", float_of_int s.Scenario.n);
            ("delivered", float_of_int o.Outcome.transport.delivered);
            ("events", float_of_int o.transport.events);
          ]
          @ gossip @ heap_values ();
        digest = Some (Outcome.digest o);
      }
  | Udp p ->
      let m = Udp_cluster.run p ~seed in
      {
        values =
          [
            ("wall_s", m.Udp_cluster.wall);
            ("cpu_user_s", m.cpu.Clock.user);
            ("cpu_sys_s", m.cpu.sys);
            ("minor_words", m.minor_words);
            ("node_rounds", float_of_int m.rounds);
            ("nodes", float_of_int p.Udp_cluster.nodes);
            ("delivered", float_of_int m.datagrams);
            ("pulls", float_of_int m.pulls);
            ("retries", float_of_int m.retries);
            ("decode_errors", float_of_int m.decode_errors);
            ("lag_p50_s", m.lag_p50);
            ("lag_p99_s", m.lag_p99);
            ("rtt_p50_s", m.rtt_p50);
            ("rtt_p99_s", m.rtt_p99);
            ("min_view_distinct", float_of_int m.min_distinct);
            ("min_samples", float_of_int m.min_samples);
            ("ok", if Udp_cluster.check p m then 1.0 else 0.0);
          ]
          @ heap_values ();
        digest = None;
      }

let traced ?spans_file w ~seed =
  match w.kind with
  | Udp _ -> invalid_arg "Workloads.traced: the UDP workload has no traced copy"
  | Sim sim ->
      let s = sim.scenario ~steps:sim.steps ~seed in
      let sp = Spans.create ~capacity:50_000 in
      let o, offers = Traced.run ?gossip:sim.gossip sp s in
      Option.iter (Spans.write_jsonl sp) spans_file;
      let stats = Spans.stats sp in
      let sum f = float_of_int (List.fold_left (fun acc st -> acc + f st) 0 stats) in
      let layers = List.sort_uniq String.compare (List.map (fun st -> st.Spans.layer) stats) in
      let root = List.find (fun st -> String.equal st.Spans.name "sim.run") stats in
      {
        values =
          [
            ("traced_ns", float_of_int root.total_ns);
            ("self_sum_ns", sum (fun st -> st.self_ns));
            ("nodes", float_of_int (Scenario.num_correct s));
            ("view_size", float_of_int (Scenario.view_size s));
            ("offered_ids", float_of_int offers.Traced.offered);
            ("rank_evals", float_of_int offers.rank_evals);
          ]
          @ List.map
              (fun l ->
                ( "layer." ^ l ^ ".self_ns",
                  sum (fun st -> if String.equal st.layer l then st.self_ns else 0) ))
              layers
          @ List.concat_map
              (fun st ->
                [
                  (st.Spans.name ^ ".calls", float_of_int st.calls);
                  (st.name ^ ".total_ns", float_of_int st.total_ns);
                  (st.name ^ ".self_ns", float_of_int st.self_ns);
                  (st.name ^ ".self_words", float_of_int st.self_words);
                ])
              stats;
        digest = Some (Outcome.digest o);
      }

(* [Runner.run ~obs:true]: the instrument registry's cost, for the
   workloads whose entry point is [Runner.run]. *)
let with_registry w ~seed =
  match w.kind with
  | Sim ({ gossip = None; _ } as sim) ->
      let s = sim.scenario ~steps:sim.steps ~seed in
      let t0 = Clock.now_ns () in
      let r = Runner.run ~obs:true s in
      let wall = seconds_since t0 in
      { values = [ ("wall_s", wall) ]; digest = Some (Outcome.digest (Outcome.of_result r)) }
  | Sim _ | Udp _ -> invalid_arg "Workloads.with_registry: needs a Runner.run workload"
