(* A copy of [Basalt_sim.Runner.run_with_observer] (and of the app that
   [Basalt_experiments.Gossip_app.run] mounts) in which every call into a
   layer is wrapped in a span.  It is built only from public functions
   and must consume the PRNG streams and schedule the engine exactly as
   the original does: [Outcome.digest] of both runs is compared on every
   traced run, so the per-layer split describes the same program.

   Only what the workloads use is copied: no churn, no graph metrics, no
   observer, and a registry that only the rank-evaluation count is read
   from.  A change to [Runner]'s own wiring shows in the end-to-end
   numbers but not here until this copy follows it; the digest check
   fails loudly when the two drift apart. *)

module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message
module Rps = Basalt_proto.Rps
module Engine = Basalt_engine.Engine
module Rng = Basalt_prng.Rng
module Adversary = Basalt_adversary.Adversary
module Sample_stream = Basalt_core.Sample_stream
module Isolation = Basalt_graph.Isolation
module Online = Basalt_analysis.Stats.Online
module Scenario = Basalt_sim.Scenario
module Runner = Basalt_sim.Runner
module Measurements = Basalt_sim.Measurements
module Gossip = Basalt_gossip.Gossip
module Delivery = Basalt_gossip.Delivery
module Gossip_app = Basalt_experiments.Gossip_app
module Obs = Basalt_obs.Obs

(* The seen-cache's work on delivered messages: the candidate ids they
   offered to Basalt's [update_sample] (self excluded), and the rank
   evaluations it made for them, read from the sampler's [rank_evals]
   counter around each call.  Without the cache every offered id would
   cost one evaluation per view slot. *)
type offers = { offered : int; rank_evals : int }

let offered_ids ~self ~from msg =
  let other id = if Int.equal (Node_id.to_int id) self then 0 else 1 in
  match msg with
  | Message.Push ids | Message.Pull_reply ids ->
      Array.fold_left (fun acc id -> acc + other id) (other from) ids
  | Message.Push_id id -> other id
  | Message.Pull_request | Message.Gossip _ | Message.Ihave _ | Message.Iwant _
  | Message.Graft | Message.Prune ->
      0

(* [Runner]'s bootstrap sampler, which it does not export. *)
let bootstrap_sample s rng ~self =
  let q = Scenario.num_correct s in
  let num_byz = Scenario.num_byzantine s in
  let size = s.Scenario.bootstrap_size in
  let byz_count =
    min num_byz
      (int_of_float (Float.round (s.Scenario.bootstrap_f0 *. float_of_int size)))
  in
  let correct_count = min (q - 1) (size - byz_count) in
  let out = ref [] in
  let seen = Hashtbl.create size in
  let draw bound offset count =
    let drawn = ref 0 in
    let attempts = ref 0 in
    while !drawn < count && !attempts < 100 * count do
      incr attempts;
      let candidate = offset + Rng.int rng bound in
      if candidate <> self && not (Hashtbl.mem seen candidate) then begin
        Hashtbl.add seen candidate ();
        out := Node_id.of_int candidate :: !out;
        incr drawn
      end
    done
  in
  if q > 1 then draw q 0 correct_count;
  if num_byz > 0 then draw num_byz q byz_count;
  Array.of_list !out

(* [Gossip_app]'s publish plan, which it does not export. *)
let plan (p : Gossip_app.params) ~q ~steps =
  List.init p.Gossip_app.publishes (fun k ->
      let time = (p.Gossip_app.warmup_frac *. steps) +. float_of_int k in
      let publisher = 17 * (k + 1) mod q in
      let payload =
        Bytes.make p.Gossip_app.payload_bytes (Char.chr (65 + (k mod 26)))
      in
      (time, publisher, payload))

let null_app_node =
  {
    Runner.app_deliver = (fun ~from:_ _ -> false);
    app_tick = (fun _ -> ());
    app_round = (fun () -> ());
  }

let run ?gossip sp s =
  if Option.is_some s.Scenario.churn || s.Scenario.graph_metrics then
    invalid_arg "Traced.run: churn and graph metrics are not copied";
  let proto = Scenario.protocol_name s in
  let name layer op = Spans.register sp ~layer (layer ^ "." ^ op) in
  let c_run = name "sim" "run" in
  let c_bootstrap = name "sim" "bootstrap" in
  let c_deliver = name "sim" "deliver" in
  let c_round = name "sim" "round_timer" in
  let c_tick = name "sim" "sample_timer" in
  let c_measure = name "sim" "measure" in
  let c_engine_create = name "engine" "create" in
  let c_engine_run = name "engine" "run_until" in
  let c_send = name "engine" "send" in
  let c_meter = name "meter" "bytes_on_wire" in
  let c_create = name proto "create" in
  let c_push = name proto "on_message_push" in
  let c_pull = name proto "on_message_pull" in
  let c_reply = name proto "on_message_reply" in
  let c_other = name proto "on_message_other" in
  let c_on_round = name proto "on_round" in
  let c_sample_tick = name proto "sample_tick" in
  let c_view = name proto "current_view" in
  let c_adv_create = name "adversary" "create" in
  let c_adv_message = name "adversary" "on_message" in
  let c_adv_round = name "adversary" "on_round" in
  let c_g_create = name "gossip" "create" in
  let c_g_message = name "gossip" "on_message" in
  let c_g_samples = name "gossip" "on_samples" in
  let c_g_heartbeat = name "gossip" "heartbeat" in
  let c_g_publish = name "gossip" "publish" in
  let message_code = function
    | Message.Push _ | Message.Push_id _ -> c_push
    | Message.Pull_request -> c_pull
    | Message.Pull_reply _ -> c_reply
    | Message.Gossip _ | Message.Ihave _ | Message.Iwant _ | Message.Graft
    | Message.Prune ->
        c_other
  in
  Spans.enter sp c_run;
  let master = Rng.create ~seed:s.Scenario.seed in
  let engine_rng = Rng.split master in
  let node_rng = Rng.split master in
  let adversary_rng = Rng.split master in
  let bootstrap_rng = Rng.split master in
  (* [Runner]'s graph-metric stream: unused here, but split so that the
     app stream below is the same one. *)
  ignore (Rng.split master : Rng.t);
  let app_rng =
    match gossip with None -> None | Some _ -> Some (Rng.split master)
  in
  let n = s.Scenario.n in
  let q = Scenario.num_correct s in
  let num_byz = Scenario.num_byzantine s in
  Spans.enter sp c_engine_create;
  let engine : Message.t Engine.t =
    Engine.create ~latency:s.Scenario.latency ~loss:s.Scenario.loss
      ?fault:s.Scenario.fault ~kind_of:Message.kind ~rng:engine_rng ~n ()
  in
  Spans.leave sp;
  let malicious_pred id = Runner.is_malicious s id in
  let correct_messages = ref 0 in
  let correct_bytes = ref 0 in
  let adversary_messages = ref 0 in
  let adversary_bytes = ref 0 in
  let max_datagram = ref 0 in
  let meter ~from_adversary msg =
    Spans.enter sp c_meter;
    let size = Message.bytes_on_wire msg in
    if size > !max_datagram then max_datagram := size;
    if from_adversary then begin
      incr adversary_messages;
      adversary_bytes := !adversary_bytes + size
    end
    else begin
      incr correct_messages;
      correct_bytes := !correct_bytes + size
    end;
    Spans.leave sp
  in
  let engine_send ~src ~dst msg =
    Spans.enter sp c_send;
    Engine.send engine ~src ~dst msg;
    Spans.leave sp
  in
  (* A registry only for the rank-evaluation counter: instruments do not
     touch the PRNG streams, so the digest check still holds. *)
  let obs = Obs.create () in
  let rank_evals = Obs.counter obs "basalt.rank_evals" in
  let counting = String.equal proto "basalt" in
  let offered = ref 0 and evals = ref 0 in
  let maker = Scenario.maker ~obs s in
  let samplers = Array.make q (Rps.null (Node_id.of_int 0)) in
  let streams =
    Array.init q (fun _ -> Sample_stream.create ~capacity:s.Scenario.sample_window)
  in
  let sample_histogram = Array.make n 0 in
  let current_view i =
    Spans.enter sp c_view;
    let v = samplers.(i).Rps.current_view () in
    Spans.leave sp;
    v
  in
  (* --- Application layer: the gossip app of [Gossip_app.run] --- *)
  let apps = Array.make q null_app_node in
  let tracker = Delivery.create ~n:q () in
  let gossips = Array.make q None in
  (match gossip with
  | None -> ()
  | Some params ->
      List.iter
        (fun (time, p, payload) ->
          Engine.schedule engine ~delay:time (fun () ->
              Spans.event sp c_g_publish;
              (match gossips.(p) with
              | Some g ->
                  let mid = Gossip.publish g payload in
                  Delivery.published tracker mid ~time:(Engine.now engine)
              | None -> ());
              Spans.leave sp))
        (plan params ~q ~steps:s.Scenario.steps));
  let make_app i =
    match app_rng with
    | None -> ()
    | Some app_rng ->
        Spans.enter sp c_g_create;
        let rng = Rng.split app_rng in
        let g =
          Gossip.create ~node:(Node_id.of_int i)
            ~view:(fun () -> current_view i)
            ~rng
            ~send:(fun ~dst msg ->
              meter ~from_adversary:false msg;
              engine_send ~src:i ~dst:(Node_id.to_int dst) msg)
            ~deliver:(fun mid _payload ->
              Delivery.delivered tracker mid ~node:i ~time:(Engine.now engine))
            ()
        in
        gossips.(i) <- Some g;
        apps.(i) <-
          {
            Runner.app_deliver =
              (fun ~from msg ->
                Spans.enter sp c_g_message;
                let consumed = Gossip.on_message g ~from msg in
                Spans.leave sp;
                consumed);
            app_tick =
              (fun ps ->
                Spans.enter sp c_g_samples;
                Gossip.on_samples g ps;
                Spans.leave sp);
            app_round =
              (fun () ->
                Spans.enter sp c_g_heartbeat;
                Gossip.heartbeat g;
                Spans.leave sp);
          };
        Spans.leave sp
  in
  (* --- Correct nodes --- *)
  let spawn i =
    let id = Node_id.of_int i in
    let send ~dst msg =
      meter ~from_adversary:false msg;
      engine_send ~src:i ~dst:(Node_id.to_int dst) msg
    in
    Spans.enter sp c_bootstrap;
    let bootstrap = bootstrap_sample s bootstrap_rng ~self:i in
    Spans.leave sp;
    Spans.enter sp c_create;
    samplers.(i) <- maker ~id ~bootstrap ~rng:node_rng ~send;
    Spans.leave sp;
    make_app i
  in
  for i = 0 to q - 1 do
    spawn i;
    Engine.register engine i (fun ~from msg ->
        Spans.event sp c_deliver;
        let from = Node_id.of_int from in
        if not (apps.(i).Runner.app_deliver ~from msg) then begin
          let evals0 = Obs.Counter.value rank_evals in
          Spans.enter sp (message_code msg);
          samplers.(i).Rps.on_message ~from msg;
          Spans.leave sp;
          if counting then begin
            offered := !offered + offered_ids ~self:i ~from msg;
            evals := !evals + Obs.Counter.value rank_evals - evals0
          end
        end;
        Spans.leave sp)
  done;
  (* --- Adversary --- *)
  let adversary =
    if num_byz = 0 then None
    else begin
      Spans.enter sp c_adv_create;
      let malicious = Array.init num_byz (fun i -> Node_id.of_int (q + i)) in
      let correct = Array.init q Node_id.of_int in
      let send ~src ~dst msg =
        meter ~from_adversary:true msg;
        engine_send ~src:(Node_id.to_int src) ~dst:(Node_id.to_int dst) msg
      in
      let adv =
        Adversary.create ~rng:adversary_rng ~malicious ~correct
          ~v:(Scenario.view_size s) ~force:s.Scenario.force
          ~strategy:s.Scenario.strategy ~send ()
      in
      for i = q to n - 1 do
        Engine.register engine i (fun ~from msg ->
            Spans.event sp c_adv_message;
            Adversary.on_message adv ~victim_reply:true
              ~from:(Node_id.of_int from) ~to_:(Node_id.of_int i) msg;
            Spans.leave sp)
      done;
      Spans.leave sp;
      Some adv
    end
  in
  (* --- Timers --- *)
  let tau = Scenario.tau s in
  let refresh = Scenario.refresh_interval s in
  for i = 0 to q - 1 do
    let phase = Rng.float node_rng tau in
    Engine.every engine ~phase ~interval:tau (fun () ->
        Spans.event sp c_round;
        Spans.enter sp c_on_round;
        samplers.(i).Rps.on_round ();
        Spans.leave sp;
        apps.(i).Runner.app_round ();
        Spans.leave sp);
    let sample_phase = phase +. Rng.float node_rng refresh in
    Engine.every engine ~phase:sample_phase ~interval:refresh (fun () ->
        Spans.event sp c_tick;
        Spans.enter sp c_sample_tick;
        let samples = samplers.(i).Rps.sample_tick () in
        Spans.leave sp;
        List.iter
          (fun p ->
            let idx = Node_id.to_int p in
            if idx < n then sample_histogram.(idx) <- sample_histogram.(idx) + 1)
          samples;
        Sample_stream.push_list streams.(i) samples;
        apps.(i).Runner.app_tick samples;
        Spans.leave sp)
  done;
  (match adversary with
  | Some adv ->
      Engine.every engine ~phase:tau ~interval:tau (fun () ->
          Spans.event sp c_adv_round;
          Adversary.on_round adv;
          Spans.leave sp)
  | None -> ());
  (* --- Measurements --- *)
  let series = Measurements.create () in
  let measure () =
    Spans.event sp c_measure;
    let time = Engine.now engine in
    let view_acc = Online.create () in
    let sample_acc = Online.create () in
    let isolated = ref 0 in
    for i = 0 to q - 1 do
      let view = current_view i in
      if Array.length view > 0 then
        Online.add view_acc (Basalt_proto.View_ops.proportion malicious_pred view);
      if Sample_stream.retained streams.(i) > 0 then
        Online.add sample_acc (Sample_stream.proportion malicious_pred streams.(i));
      if Isolation.is_isolated ~is_malicious:malicious_pred view then incr isolated
    done;
    Measurements.add series
      {
        Measurements.time;
        view_byz = Online.mean view_acc;
        sample_byz = Online.mean sample_acc;
        isolated = float_of_int !isolated /. float_of_int (max 1 q);
        clustering = None;
        mean_path = None;
        indegree_spread = None;
        metrics = None;
      };
    Spans.leave sp
  in
  Engine.every engine ~phase:s.Scenario.measure_every
    ~interval:s.Scenario.measure_every measure;
  (* --- Run --- *)
  Spans.enter sp c_engine_run;
  Engine.run_until engine s.Scenario.steps;
  Spans.leave sp;
  (match Measurements.last series with
  | Some p when p.Measurements.time >= Engine.now engine -> ()
  | Some _ | None -> measure ());
  let final = Option.get (Measurements.last series) in
  let summary =
    match gossip with
    | None -> None
    | Some _ ->
        let duplicates = ref 0 and deliveries = ref 0 in
        Array.iter
          (Option.iter (fun g ->
               let st = Gossip.stats g in
               duplicates := !duplicates + st.Gossip.duplicates;
               deliveries := !deliveries + st.Gossip.delivered))
          gossips;
        Some
          {
            Gossip_app.delivered = Delivery.fraction tracker;
            t99 = Delivery.median_time_to_fraction tracker ~frac:0.99;
            duplicates = !duplicates;
            deliveries = !deliveries;
          }
  in
  let outcome =
    {
      Outcome.final;
      transport = Engine.stats engine;
      bandwidth =
        {
          Runner.correct_messages = !correct_messages;
          correct_bytes = !correct_bytes;
          adversary_messages = !adversary_messages;
          adversary_bytes = !adversary_bytes;
          max_datagram = !max_datagram;
        };
      sample_histogram;
      summary;
    }
  in
  Spans.leave sp;
  (outcome, { offered = !offered; rank_evals = !evals })
