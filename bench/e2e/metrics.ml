(* Metric definitions: how the numbers a child reports become the
   metrics the benchmark prints.  [end_to_end] and [per_layer] are the
   metrics listed in BENCHMARK.json and printed on every workload (a
   layer a workload does not run reads 0); [details] are per-call costs
   and latencies defined only on the workloads that exercise them. *)

type m = { name : string; unit : string; value : float }

let get (r : Workloads.result) key =
  match List.assoc_opt key r.Workloads.values with Some v -> v | None -> 0.0

let ratio a b = if b > 0.0 then a /. b else 0.0
let cpu r = get r "cpu_user_s" +. get r "cpu_sys_s"
let heap_bytes r = get r "top_heap_words" *. float_of_int (Sys.word_size / 8)

let end_to_end_units =
  [
    ("setup_s", "s");
    ("cpu_us_per_node_round", "us");
    ("cpu_us_per_datagram", "us");
    ("peak_heap_mb", "MiB");
  ]

let per_layer_units =
  [
    ("engine.self_frac", "ratio");
    ("engine.events_per_s", "1/s");
    ("basalt.self_frac", "ratio");
    ("basalt.minor_words_per_message", "words");
    ("basalt.seen_hit_frac", "ratio");
    ("basalt.sample_ticks_per_node", "count");
    ("brahms.self_frac", "ratio");
    ("adversary.self_frac", "ratio");
    ("gossip.self_frac", "ratio");
    ("gossip.useful_frac", "ratio");
    ("gossip.on_samples_per_node", "count");
    ("meter.self_frac", "ratio");
    ("sim.self_frac", "ratio");
    ("gc.minor_words_per_node_round", "words");
    ("gc.major_collections", "count");
    ("gc.heap_bytes_per_node", "B");
    ("net.busy_frac", "ratio");
    ("net.sys_cpu_frac", "ratio");
    ("net.retries_per_pull", "ratio");
    ("trace.overhead_frac", "ratio");
  ]

let make units values =
  List.map
    (fun (name, value) -> { name; unit = List.assoc name units; value })
    values

let of_setup r = make end_to_end_units [ ("setup_s", get r "setup_s") ]

(* One untraced run's end-to-end numbers, [setup_s] aside. *)
let of_run r =
  make end_to_end_units
    [
      ("cpu_us_per_node_round", 1e6 *. ratio (cpu r) (get r "node_rounds"));
      ("cpu_us_per_datagram", 1e6 *. ratio (cpu r) (get r "delivered"));
      ("peak_heap_mb", heap_bytes r /. 1048576.0);
    ]

(* Per-layer numbers of one untraced run and, for a simulated workload,
   the traced run paired with it. *)
let per_layer ~run ?traced () =
  let span key = match traced with Some t -> get t key | None -> 0.0 in
  let total = span "traced_ns" in
  let self_frac layer = ratio (span ("layer." ^ layer ^ ".self_ns")) total in
  let on_message suffix =
    List.fold_left
      (fun acc kind -> acc +. span ("basalt.on_message_" ^ kind ^ suffix))
      0.0 [ "push"; "pull"; "reply" ]
  in
  let deliveries = get run "deliveries" in
  let per_node key = ratio (span key) (span "nodes") in
  (* Without the seen-cache every offered id costs one rank evaluation
     per view slot. *)
  let naive_evals = span "offered_ids" *. span "view_size" in
  make per_layer_units
    [
      ("engine.self_frac", self_frac "engine");
      ("engine.events_per_s", ratio (get run "events") (get run "wall_s"));
      ("basalt.self_frac", self_frac "basalt");
      ("basalt.minor_words_per_message", ratio (on_message ".self_words") (on_message ".calls"));
      ( "basalt.seen_hit_frac",
        if naive_evals > 0.0 then 1.0 -. (span "rank_evals" /. naive_evals) else 0.0 );
      ("basalt.sample_ticks_per_node", per_node "basalt.sample_tick.calls");
      ("brahms.self_frac", self_frac "brahms");
      ("adversary.self_frac", self_frac "adversary");
      ("gossip.self_frac", self_frac "gossip");
      ("gossip.useful_frac", ratio deliveries (deliveries +. get run "duplicates"));
      ("gossip.on_samples_per_node", per_node "gossip.on_samples.calls");
      ("meter.self_frac", self_frac "meter");
      ("sim.self_frac", self_frac "sim");
      ("gc.minor_words_per_node_round", ratio (get run "minor_words") (get run "node_rounds"));
      ("gc.major_collections", get run "major_collections");
      ("gc.heap_bytes_per_node", ratio (heap_bytes run) (get run "nodes"));
      ("net.busy_frac", ratio (cpu run) (get run "wall_s"));
      ("net.sys_cpu_frac", ratio (get run "cpu_sys_s") (cpu run));
      ("net.retries_per_pull", ratio (get run "retries") (get run "pulls"));
      ( "trace.overhead_frac",
        if total > 0.0 then (total *. 1e-9 /. get run "wall_s") -. 1.0 else 0.0 );
    ]

(* Detail lines: numbers defined only on the workloads that exercise
   them, printed and written by --json but not listed in BENCHMARK.json. *)
let run_details (w : Workloads.t) run =
  match w.Workloads.kind with
  | Workloads.Sim _ ->
      [
        { name = "wall_s"; unit = "s"; value = get run "wall_s" };
        {
          name = "ns_per_node_round";
          unit = "ns";
          value = 1e9 *. ratio (get run "wall_s") (get run "node_rounds");
        };
        { name = "engine.events"; unit = "count"; value = get run "events" };
      ]
  | Workloads.Udp _ ->
      let per_datagram key = 1e6 *. ratio (get run key) (get run "delivered") in
      let ms key = 1e3 *. get run key in
      [
        {
          name = "net.datagrams_per_s";
          unit = "1/s";
          value = ratio (get run "delivered") (get run "wall_s");
        };
        { name = "net.user_cpu_us_per_datagram"; unit = "us"; value = per_datagram "cpu_user_s" };
        { name = "net.sys_cpu_us_per_datagram"; unit = "us"; value = per_datagram "cpu_sys_s" };
        { name = "event_loop.timer_lag_p50_ms"; unit = "ms"; value = ms "lag_p50_s" };
        { name = "event_loop.timer_lag_p99_ms"; unit = "ms"; value = ms "lag_p99_s" };
        { name = "event_loop.pull_rtt_p50_ms"; unit = "ms"; value = ms "rtt_p50_s" };
        { name = "event_loop.pull_rtt_p99_ms"; unit = "ms"; value = ms "rtt_p99_s" };
      ]

(* Mean time per call of each span a traced run made at least once:
   self time, except for the two sim spans that time a whole pass. *)
let span_details ~proto traced =
  let per_call ?(field = "self_ns") scale unit name span =
    let calls = get traced (span ^ ".calls") in
    if calls > 0.0 then
      [ { name; unit; value = scale *. get traced (span ^ "." ^ field) /. calls } ]
    else []
  in
  let ns = per_call 1.0 "ns" in
  let us ?field = per_call ?field 1e-3 "us" and ms ?field = per_call ?field 1e-6 "ms" in
  let p op = proto ^ "." ^ op in
  List.concat
    [
      ns "engine.send_ns" "engine.send";
      ns (p "on_message_push_ns") (p "on_message_push");
      ns (p "on_message_pull_ns") (p "on_message_pull");
      ns (p "on_message_reply_ns") (p "on_message_reply");
      ns (p "on_round_ns") (p "on_round");
      ns (p "sample_tick_ns") (p "sample_tick");
      ns (p "current_view_ns") (p "current_view");
      us (p "create_us") (p "create");
      ns "adversary.on_message_ns" "adversary.on_message";
      ms "adversary.on_round_ms" "adversary.on_round";
      ns "gossip.on_message_ns" "gossip.on_message";
      ns "gossip.heartbeat_ns" "gossip.heartbeat";
      ns "gossip.on_samples_ns" "gossip.on_samples";
      ns "meter.ns" "meter.bytes_on_wire";
      ms ~field:"total_ns" "sim.measure_ms" "sim.measure";
      us ~field:"total_ns" "sim.bootstrap_us_per_node" "sim.bootstrap";
    ]

(* [Runner.run ~obs:true] against the untraced run of the same seed. *)
let registry_overhead ~run registry =
  {
    name = "obs.registry_overhead_frac";
    unit = "ratio";
    value = ratio (get registry "wall_s") (get run "wall_s") -. 1.0;
  }

(* Median and quartiles as Python's [statistics.median] and
   [statistics.quantiles ~n:4] (exclusive method) compute them. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0.0)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    let median =
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
    in
    (q 1, median, q 3)
