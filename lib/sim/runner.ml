module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message
module Rps = Basalt_proto.Rps
module Engine = Basalt_engine.Engine
module Rng = Basalt_prng.Rng
module Adversary = Basalt_adversary.Adversary
module Sample_stream = Basalt_core.Sample_stream
module Node = Basalt_assembly.Node
module Digraph = Basalt_graph.Digraph
module Metrics = Basalt_graph.Metrics
module Isolation = Basalt_graph.Isolation
module Obs = Basalt_obs.Obs

type app_node = Node.app = {
  app_deliver : from:Node_id.t -> Message.t -> bool;
  app_tick : Node_id.t list -> unit;
  app_round : unit -> unit;
}

type app_ctx = {
  app_rng : Rng.t;
  app_obs : Obs.t;
  app_now : unit -> float;
  app_send : src:int -> dst:Node_id.t -> Message.t -> unit;
  app_schedule : delay:float -> (unit -> unit) -> unit;
  app_alive : int -> bool;
  app_view : int -> Node_id.t array;
}

type app = app_ctx -> int -> app_node

type node_outcome = {
  node_view_byz : float;
  node_sample_byz : float;
  node_samples_total : int;
  node_isolated : bool;
}

type bandwidth = {
  correct_messages : int;
  correct_bytes : int;
  adversary_messages : int;
  adversary_bytes : int;
  max_datagram : int;
}

type result = {
  scenario : Scenario.t;
  series : Measurements.t;
  final : Measurements.point;
  per_node : node_outcome array;
  ever_isolated_after_half : bool;
  transport : Engine.stats;
  bandwidth : bandwidth;
  adversary_pushes : int;
  nodes_churned : int;
  sample_histogram : int array;
  obs : Obs.t option;
}

let is_malicious s id = Node_id.to_int id >= Scenario.num_correct s

(* Draw a bootstrap sample of [size] peers with Byzantine fraction [f0],
   excluding [self].  [marks] is the run's one byte per node id, all zero
   between draws: a drawn id is marked, and only the marked entries are
   cleared before returning. *)
let bootstrap_sample s rng ~marks ~self =
  let q = Scenario.num_correct s in
  let num_byz = Scenario.num_byzantine s in
  let size = s.Scenario.bootstrap_size in
  let byz_count =
    min num_byz (int_of_float (Float.round (s.Scenario.bootstrap_f0 *. float_of_int size)))
  in
  let correct_count = min (q - 1) (size - byz_count) in
  let out = ref [] in
  let draw bound offset count =
    let drawn = ref 0 in
    let attempts = ref 0 in
    while !drawn < count && !attempts < 100 * count do
      incr attempts;
      let candidate = offset + Rng.int rng bound in
      if candidate <> self && Bytes.get_uint8 marks candidate = 0 then begin
        Bytes.set_uint8 marks candidate 1;
        out := Node_id.of_int candidate :: !out;
        incr drawn
      end
    done
  in
  if q > 1 then draw q 0 correct_count;
  if num_byz > 0 then draw num_byz q byz_count;
  List.iter (fun id -> Bytes.set_uint8 marks (Node_id.to_int id) 0) !out;
  Array.of_list !out

let run ?observer ?app ?(obs = false) ?(trace = false) s =
  let master = Rng.create ~seed:s.Scenario.seed in
  let engine_rng = Rng.split master in
  let node_rng = Rng.split master in
  let adversary_rng = Rng.split master in
  let bootstrap_rng = Rng.split master in
  let metric_rng = Rng.split master in
  (* The application stream is split only when an app is present, so
     app-less runs draw exactly the streams they always did (the pinned
     regression outcomes depend on it). *)
  let app_rng = match app with None -> None | Some _ -> Some (Rng.split master) in
  let n = s.Scenario.n in
  let q = Scenario.num_correct s in
  let num_byz = Scenario.num_byzantine s in
  (* The registry is created inside the run — never shared across the
     scenarios a Pool fans out — so instruments and traces are as
     deterministic as the run itself (DESIGN.md §8). *)
  let sink = if obs || trace then Obs.create ~trace () else Obs.disabled in
  let engine : Message.t Engine.t =
    Engine.create ~latency:s.Scenario.latency ~loss:s.Scenario.loss
      ?fault:s.Scenario.fault ~obs:sink ~kind_of:Message.kind ~rng:engine_rng
      ~n ()
  in
  Obs.set_clock sink (fun () -> Engine.now engine);
  (* Ids at or above [q] are Byzantine ([is_malicious]), compared
     without re-deriving [q] per id. *)
  let malicious_pred (id : Node_id.t) = (id :> int) >= q in
  (* Bandwidth accounting: every send is metered by its estimated wire
     size so experiments can check the §4.3 communication budget. *)
  let correct_messages = ref 0 in
  let correct_bytes = ref 0 in
  let adversary_messages = ref 0 in
  let adversary_bytes = ref 0 in
  let max_datagram = ref 0 in
  let meter ~from_adversary msg =
    let size = Message.bytes_on_wire msg in
    if size > !max_datagram then max_datagram := size;
    if from_adversary then begin
      incr adversary_messages;
      adversary_bytes := !adversary_bytes + size
    end
    else begin
      incr correct_messages;
      correct_bytes := !correct_bytes + size
    end
  in
  (* --- Correct nodes --- *)
  let maker = Scenario.maker ~obs:sink s in
  let fresh_stream () =
    Sample_stream.create ~capacity:s.Scenario.sample_window
  in
  let crashed i =
    Node.create ~stream:(fresh_stream ()) (Rps.null (Node_id.of_int i))
  in
  let nodes = Array.make q (crashed 0) in
  (* The initial streams are allocated together, before any sampler:
     interleaving them with the samplers' allocations shifts the major
     GC's pacing (+3.5% peak heap on a 300-node gossip run). *)
  let streams = Array.init q (fun _ -> fresh_stream ()) in
  (* A correct node's current view ([[||]] out of range). *)
  let views i = if i >= 0 && i < q then Node.view nodes.(i) else [||] in
  let sample_histogram = Array.make n 0 in
  let alive = Array.make q true in
  (* --- Application layer (e.g. lib/gossip broadcast) --- *)
  let app_make =
    match app with
    | None -> None
    | Some f ->
        let ctx =
          {
            app_rng = Option.get app_rng;
            app_obs = sink;
            app_now = (fun () -> Engine.now engine);
            app_send =
              (fun ~src ~dst msg ->
                meter ~from_adversary:false msg;
                Engine.send engine ~src ~dst:(Node_id.to_int dst) msg);
            app_schedule = (fun ~delay k -> Engine.schedule engine ~delay k);
            app_alive = (fun i -> i >= 0 && i < q && alive.(i));
            app_view = views;
          }
        in
        Some (f ctx)
  in
  let marks = Bytes.make n '\000' in
  (* [spawn i stream] (re)creates node [i] with a fresh sampler and app
     over [stream]; handlers and timers go through the array so churn
     can replace nodes live. *)
  let spawn i stream =
    let id = Node_id.of_int i in
    let send ~dst msg =
      meter ~from_adversary:false msg;
      Engine.send engine ~src:i ~dst:(Node_id.to_int dst) msg
    in
    let bootstrap = bootstrap_sample s bootstrap_rng ~marks ~self:i in
    let sampler = maker ~id ~bootstrap ~rng:node_rng ~send in
    let app = Option.map (fun f -> f i) app_make in
    nodes.(i) <- Node.create ?app ~stream sampler
  in
  for i = 0 to q - 1 do
    spawn i streams.(i);
    Engine.register engine i (fun ~from msg ->
        Node.deliver nodes.(i) ~from:(Node_id.of_int from) msg)
  done;
  (* --- Adversary --- *)
  let adversary =
    if num_byz = 0 then None
    else begin
      let malicious =
        Array.init num_byz (fun i -> Node_id.of_int (q + i))
      in
      let correct = Array.init q Node_id.of_int in
      let send ~src ~dst msg =
        meter ~from_adversary:true msg;
        Engine.send engine ~src:(Node_id.to_int src) ~dst:(Node_id.to_int dst)
          msg
      in
      let adv =
        Adversary.create ~rng:adversary_rng ~malicious ~correct
          ~v:(Scenario.view_size s) ~force:s.Scenario.force
          ~strategy:s.Scenario.strategy ~send ()
      in
      for i = q to n - 1 do
        Engine.register engine i (fun ~from msg ->
            Adversary.on_message adv ~victim_reply:true
              ~from:(Node_id.of_int from) ~to_:(Node_id.of_int i) msg)
      done;
      Some adv
    end
  in
  (* --- Timers --- *)
  let tau = Scenario.tau s in
  let refresh = Scenario.refresh_interval s in
  (* Stagger node rounds uniformly across the exchange interval so rounds
     interleave as in an asynchronous deployment; the adversary fires at
     the interval boundary. *)
  for i = 0 to q - 1 do
    let phase = Rng.float node_rng tau in
    Engine.every engine ~phase ~interval:tau (fun () -> Node.round nodes.(i));
    let sample_phase = phase +. Rng.float node_rng refresh in
    Engine.every engine ~phase:sample_phase ~interval:refresh (fun () ->
        List.iter
          (fun p ->
            let idx = Node_id.to_int p in
            if idx < n then
              sample_histogram.(idx) <- sample_histogram.(idx) + 1)
          (Node.tick nodes.(i)))
  done;
  (match adversary with
  | Some adv -> Engine.every engine ~phase:tau ~interval:tau (fun () ->
      Adversary.on_round adv)
  | None -> ());
  (* --- Churn --- *)
  let churned = ref 0 in
  (match s.Scenario.churn with
  | None -> ()
  | Some churn ->
      let churn_rng = Rng.split master in
      Engine.every engine
        ~phase:(Float.max churn.Churn.start 1.0)
        ~interval:1.0
        (fun () ->
          let count = Churn.replacements churn churn_rng ~correct:q in
          for _ = 1 to count do
            let i = Rng.int churn_rng q in
            if alive.(i) then begin
              (match churn.Churn.style with
              | Churn.Replace ->
                  (* The node loses all state and rejoins with a fresh
                     bootstrap; its sample history dies with it. *)
                  spawn i (fresh_stream ())
              | Churn.Crash ->
                  (* Fail-stop: the node goes silent forever. *)
                  nodes.(i) <- crashed i;
                  alive.(i) <- false);
              incr churned
            end
          done));
  (* --- Measurements --- *)
  let series = Measurements.create () in
  let half = s.Scenario.steps /. 2.0 in
  let ever_isolated_after_half = ref false in
  (* The [sim.round] span brackets consecutive measurements in virtual
     time. *)
  let round_span = ref Obs.no_span in
  let round_idx = ref 0 in
  let measure () =
    let time = Engine.now engine in
    Obs.span_end sink !round_span;
    round_span :=
      (if Obs.tracing sink then
         Obs.span sink ~name:"sim.round" [ ("round", Obs.Int !round_idx) ]
       else Obs.no_span);
    incr round_idx;
    let view_acc = Basalt_analysis.Stats.Online.create () in
    let sample_acc = Basalt_analysis.Stats.Online.create () in
    let isolated = ref 0 in
    let alive_count = ref 0 in
    for i = 0 to q - 1 do
      if alive.(i) then begin
        incr alive_count;
        let view = views i in
        let stream = Node.stream nodes.(i) in
        if Array.length view > 0 then
          Basalt_analysis.Stats.Online.add view_acc
            (Basalt_proto.View_ops.proportion malicious_pred view);
        if Sample_stream.retained stream > 0 then
          Basalt_analysis.Stats.Online.add sample_acc
            (Sample_stream.proportion malicious_pred stream);
        if Isolation.is_isolated ~is_malicious:malicious_pred view then
          incr isolated
      end
    done;
    let isolated_frac =
      float_of_int !isolated /. float_of_int (max 1 !alive_count)
    in
    if time >= half && !isolated > 0 then ever_isolated_after_half := true;
    let clustering, mean_path, indegree_spread =
      if s.Scenario.graph_metrics then begin
        let g = Digraph.of_views ~n views in
        let is_mal u = u >= q in
        ( Some (Metrics.clustering_coefficient ~rng:metric_rng ~is_malicious:is_mal g),
          (* lint: allow D10 — both graph estimators deliberately share the
             one metric stream; the regression suite pins outcomes under
             this draw order, so a split here would invalidate them. *)
          Some (Metrics.mean_path_length ~rng:metric_rng ~is_malicious:is_mal g),
          Some (Metrics.indegree_decile_spread ~is_malicious:is_mal g) )
      end
      else (None, None, None)
    in
    Measurements.add series
      {
        Measurements.time;
        view_byz = Basalt_analysis.Stats.Online.mean view_acc;
        sample_byz = Basalt_analysis.Stats.Online.mean sample_acc;
        isolated = isolated_frac;
        clustering;
        mean_path;
        indegree_spread;
        metrics = (if Obs.enabled sink then Some (Obs.snapshot sink) else None);
      };
    match observer with
    | Some f -> f ~time ~views
    | None -> ()
  in
  Engine.every engine ~phase:s.Scenario.measure_every
    ~interval:s.Scenario.measure_every measure;
  (* --- Run --- *)
  Engine.run_until engine s.Scenario.steps;
  (* Record a final point unless the periodic task already measured at
     the horizon. *)
  (match Measurements.last series with
  | Some p when p.Measurements.time >= Engine.now engine -> ()
  | Some _ | None -> measure ());
  let final =
    match Measurements.last series with
    | Some p -> p
    | None -> assert false
  in
  let per_node =
    Array.init q (fun i ->
        let view = views i in
        let stream = Node.stream nodes.(i) in
        {
          node_view_byz = Basalt_proto.View_ops.proportion malicious_pred view;
          node_sample_byz = Sample_stream.proportion malicious_pred stream;
          node_samples_total = Sample_stream.total stream;
          node_isolated = Isolation.is_isolated ~is_malicious:malicious_pred view;
        })
  in
  {
    scenario = s;
    series;
    final;
    per_node;
    ever_isolated_after_half = !ever_isolated_after_half;
    transport = Engine.stats engine;
    bandwidth =
      {
        correct_messages = !correct_messages;
        correct_bytes = !correct_bytes;
        adversary_messages = !adversary_messages;
        adversary_bytes = !adversary_bytes;
        max_datagram = !max_datagram;
      };
    adversary_pushes =
      (match adversary with Some a -> Adversary.pushes_sent a | None -> 0);
    nodes_churned = !churned;
    sample_histogram;
    obs = (if Obs.enabled sink then Some sink else None);
  }
