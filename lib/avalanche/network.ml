module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message
module Engine = Basalt_engine.Engine
module Rng = Basalt_prng.Rng
module Scenario = Basalt_sim.Scenario

type sampling = Substrate.sampling =
  | Service of Scenario.protocol
  | Full_knowledge

(* The one configuration the example runs (DESIGN.md §1): 300 nodes, 15%
   Byzantine at force 10, 70% of the correct nodes starting Red, one
   query round per time unit after a 30-unit warm-up, 220 units, seed
   42. *)
let n = 300
let f = 0.15
let force = 10.0
let initial_red = 0.7
let warmup = 30.0
let query_interval = 1.0
let steps = 220.0
let seed = 42

(* Combined wire format: RPS traffic plus consensus queries/votes.  A
   query carries the querier's current preference, which is what Byzantine
   nodes vote against. *)
type msg =
  | Rps_msg of Message.t
  | Query of { preference : Snowball.color }
  | Vote of { color : Snowball.color }

type result = {
  decided_fraction : float;
  agreement : bool;
  decided_red_fraction : float;
  mean_decision_time : float;
  committee_byz : float;
  queries_sent : int;
}

type node_state = {
  snowball : Snowball.t;
  mutable pending_votes : Snowball.color list;
  mutable decision_time : float;
}

let run sampling =
  let adversary_v =
    match sampling with
    | Service p -> Scenario.view_size (Scenario.make ~n ~f ~protocol:p ())
    | Full_knowledge -> 60
  in
  let sub =
    Substrate.create ~n ~f ~force ~adversary_v ~steps ~seed
      ~wrap:(fun m -> Rps_msg m) sampling
  in
  let engine = Substrate.engine sub in
  let q = Substrate.correct sub in
  let is_malicious u = u >= q in
  (* --- Per-node consensus state --- *)
  let states =
    Array.init q (fun i ->
        let initial =
          if float_of_int i < initial_red *. float_of_int q then Snowball.Red
          else Snowball.Blue
        in
        {
          snowball = Snowball.create initial;
          pending_votes = [];
          decision_time = Float.nan;
        })
  in
  let queries_sent = ref 0 in
  let committee_byz_acc = Basalt_analysis.Stats.Online.create () in
  (* --- Message handling --- *)
  for i = 0 to q - 1 do
    let state = states.(i) in
    Engine.register engine i (fun ~from msg ->
        match msg with
        | Rps_msg m -> Substrate.deliver sub i ~from m
        | Query _ ->
            Engine.send engine ~src:i ~dst:from
              (Vote { color = Snowball.preference state.snowball })
        | Vote { color } -> state.pending_votes <- color :: state.pending_votes)
  done;
  (* Byzantine nodes: RPS-level adversary plus anti-querier voting. *)
  for u = q to n - 1 do
    Engine.register engine u (fun ~from msg ->
        match msg with
        | Rps_msg m -> Substrate.deliver sub u ~from m
        | Query { preference } ->
            Engine.send engine ~src:u ~dst:from
              (Vote { color = Snowball.opposite preference })
        | Vote _ -> ())
  done;
  (* Query rounds: close the previous round's votes, then ask a fresh
     committee. *)
  for i = 0 to q - 1 do
    let state = states.(i) in
    let phase = warmup +. Rng.float (Substrate.node_rng sub) query_interval in
    Engine.every engine ~phase ~interval:query_interval (fun () ->
        if not (Snowball.decided state.snowball) then begin
          Snowball.register_votes state.snowball state.pending_votes;
          if
            Snowball.decided state.snowball
            && Float.is_nan state.decision_time
          then state.decision_time <- Engine.now engine;
          state.pending_votes <- [];
          let committee =
            Substrate.committee sub i ~k:Snowball.sample_size
          in
          if Array.length committee > 0 then begin
            let byz =
              Basalt_proto.View_ops.proportion
                (fun id -> is_malicious (Node_id.to_int id))
                committee
            in
            Basalt_analysis.Stats.Online.add committee_byz_acc byz;
            Array.iter
              (fun peer ->
                incr queries_sent;
                Engine.send engine ~src:i ~dst:(Node_id.to_int peer)
                  (Query { preference = Snowball.preference state.snowball }))
              committee
          end
        end)
  done;
  Engine.run_until engine steps;
  (* --- Collect results --- *)
  let decided = ref 0 in
  let decided_red = ref 0 in
  let decision_times = ref [] in
  Array.iter
    (fun state ->
      if Snowball.decided state.snowball then begin
        incr decided;
        (match Snowball.decision state.snowball with
        | Some Snowball.Red -> incr decided_red
        | Some Snowball.Blue | None -> ());
        if not (Float.is_nan state.decision_time) then
          decision_times := state.decision_time :: !decision_times
      end)
    states;
  let colors =
    Array.to_list states
    |> List.filter_map (fun s -> Snowball.decision s.snowball)
  in
  let agreement =
    match colors with
    | [] -> true
    | first :: rest -> List.for_all (Snowball.color_equal first) rest
  in
  {
    decided_fraction = float_of_int !decided /. float_of_int (max 1 q);
    agreement;
    decided_red_fraction =
      (if !decided = 0 then Float.nan
       else float_of_int !decided_red /. float_of_int !decided);
    mean_decision_time =
      (match !decision_times with
      | [] -> Float.nan
      | ts ->
          List.fold_left ( +. ) 0.0 ts /. float_of_int (List.length ts));
    committee_byz = Basalt_analysis.Stats.Online.mean committee_byz_acc;
    queries_sent = !queries_sent;
  }
