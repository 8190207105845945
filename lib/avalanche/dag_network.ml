module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message
module Engine = Basalt_engine.Engine
module Rng = Basalt_prng.Rng
module Scenario = Basalt_sim.Scenario

type config = { n : int; sampling : Network.sampling; steps : float }

(* The one setting of everything else (DESIGN.md §1): 15% Byzantine at
   force 10, Snowball's committees and quorum, a 25-unit warm-up, 20
   virtuous transactions, seed 42; the acceptance thresholds are
   [Tx_dag]'s. *)
let f = 0.15
let force = 10.0
let committee_size = Snowball.sample_size
let alpha = Snowball.alpha
let warmup = 25.0
let virtuous_txs = 20
let seed = 42

let config ~n ~sampling ~steps =
  if n <= 0 then invalid_arg "Dag_network.config: n must be positive";
  if steps <= warmup then invalid_arg "Dag_network.config: steps <= warmup";
  { n; sampling; steps }

(* Wire format: RPS traffic plus DAG queries/votes.  A query carries the
   transaction's ancestor closure in topological order so the recipient
   can always insert it. *)
type msg =
  | Rps_msg of Message.t
  | Query of { closure : Tx_dag.Tx.t list; subject : Tx_dag.Tx.id }
  | Vote of { subject : Tx_dag.Tx.id; positive : bool }

type node_state = {
  dag : Tx_dag.t;
  (* Votes collected for the currently-outstanding query, per subject. *)
  votes : (Tx_dag.Tx.id, int * int) Hashtbl.t;
  (* Avalanche queries each transaction once per node; confidence then
     grows through descendants' queries. *)
  queried : (Tx_dag.Tx.id, unit) Hashtbl.t;
  mutable accept_times : (Tx_dag.Tx.id * float) list;
  mutable round_robin : int;
}

type result = {
  safety : bool;
  conflict_resolved_fraction : float;
  virtuous_accepted_fraction : float;
  mean_acceptance_time : float;
  committee_byz : float;
  queries : int;
}

(* The scenario's transaction set: two conflicting spends (A = 1, B = 2,
   same conflict key) and a chain of virtuous transactions on top of A's
   branch. *)
let conflict_a = { Tx_dag.Tx.id = 1; parents = [ 0 ]; conflict = 100 }
let conflict_b = { Tx_dag.Tx.id = 2; parents = [ 0 ]; conflict = 100 }

let virtuous_tx index =
  (* tx 3 builds on A; each further one on its predecessor.  All in
     distinct singleton conflict sets. *)
  {
    Tx_dag.Tx.id = 3 + index;
    parents = [ (if index = 0 then conflict_a.Tx_dag.Tx.id else 2 + index) ];
    conflict = 200 + index;
  }

let run c =
  let sub =
    Substrate.create ~n:c.n ~f ~force ~adversary_v:40 ~steps:c.steps ~seed
      ~wrap:(fun m -> Rps_msg m) c.sampling
  in
  let engine = Substrate.engine sub in
  let q = Substrate.correct sub in
  let is_malicious u = u >= q in
  let states =
    Array.init q (fun _ ->
        {
          dag = Tx_dag.create ();
          votes = Hashtbl.create 8;
          queried = Hashtbl.create 8;
          accept_times = [];
          round_robin = 0;
        })
  in
  let queries = ref 0 in
  let committee_byz_acc = Basalt_analysis.Stats.Online.create () in
  (* --- Correct node message handling --- *)
  (* A completed query can finalise ancestors, not just its subject, so
     scan the whole (small) DAG for new acceptances. *)
  let tracked_accepts i _subject =
    let state = states.(i) in
    List.iter
      (fun id ->
        if
          id <> Tx_dag.Tx.genesis.Tx_dag.Tx.id
          && (not (List.mem_assoc id state.accept_times))
          && Tx_dag.accepted state.dag id
        then
          state.accept_times <- (id, Engine.now engine) :: state.accept_times)
      (Tx_dag.transactions state.dag)
  in
  for i = 0 to q - 1 do
    let state = states.(i) in
    Engine.register engine i (fun ~from msg ->
        match msg with
        | Rps_msg m -> Substrate.deliver sub i ~from m
        | Query { closure; subject } ->
            List.iter (fun tx -> ignore (Tx_dag.insert state.dag tx)) closure;
            let positive =
              Tx_dag.known state.dag subject
              && Tx_dag.is_strongly_preferred state.dag subject
            in
            Engine.send engine ~src:i ~dst:from (Vote { subject; positive })
        | Vote { subject; positive } -> (
            match Hashtbl.find_opt state.votes subject with
            | None -> ()
            | Some (yes, total) ->
                let yes = if positive then yes + 1 else yes in
                let total = total + 1 in
                Hashtbl.replace state.votes subject (yes, total);
                if total = committee_size then begin
                  Hashtbl.remove state.votes subject;
                  if yes >= alpha then
                    Tx_dag.record_query_success state.dag subject
                  else Tx_dag.record_query_failure state.dag subject;
                  tracked_accepts i subject
                end))
  done;
  (* --- Byzantine nodes: vote for B, against everything else --- *)
  for u = q to c.n - 1 do
    Engine.register engine u (fun ~from msg ->
        match msg with
        | Rps_msg m -> Substrate.deliver sub u ~from m
        | Query { subject; _ } ->
            let positive = subject = conflict_b.Tx_dag.Tx.id in
            Engine.send engine ~src:u ~dst:from (Vote { subject; positive })
        | Vote _ -> ())
  done;
  (* Transaction issuance: the conflict appears right after warm-up at
     two distinct correct nodes; virtuous transactions follow. *)
  Engine.schedule engine ~delay:warmup (fun () ->
      ignore (Tx_dag.insert states.(0).dag conflict_a);
      if q > 1 then ignore (Tx_dag.insert states.(1).dag conflict_b));
  (* Virtuous transactions are issued by node 0, which built the A
     branch and therefore always knows each new transaction's parent. *)
  for v = 0 to virtuous_txs - 1 do
    Engine.schedule engine
      ~delay:(warmup +. (2.0 *. float_of_int (v + 1)))
      (fun () ->
        let issuer = states.(0) in
        let tx = virtuous_tx v in
        if List.for_all (Tx_dag.known issuer.dag) tx.Tx_dag.Tx.parents then
          ignore (Tx_dag.insert issuer.dag tx))
  done;
  (* Query rounds: each correct node repeatedly queries a committee about
     its oldest not-yet-accepted transaction (round-robin over
     candidates). *)
  for i = 0 to q - 1 do
    let state = states.(i) in
    let phase = warmup +. Rng.float (Substrate.node_rng sub) 1.0 in
    Engine.every engine ~phase ~interval:1.0 (fun () ->
        (* One-shot querying (the Avalanche rule): query the oldest known
           transaction not yet queried by this node. *)
        let candidates =
          List.filter
            (fun id ->
              id <> Tx_dag.Tx.genesis.Tx_dag.Tx.id
              && not (Hashtbl.mem state.queried id))
            (Tx_dag.transactions state.dag)
        in
        match candidates with
        | [] -> ()
        | subject :: _ ->
            if not (Hashtbl.mem state.votes subject) then begin
              let committee = Substrate.committee sub i ~k:committee_size in
              if Array.length committee = committee_size then begin
                Hashtbl.replace state.queried subject ();
                Hashtbl.replace state.votes subject (0, 0);
                incr queries;
                Basalt_analysis.Stats.Online.add committee_byz_acc
                  (Basalt_proto.View_ops.proportion
                     (fun id -> is_malicious (Node_id.to_int id))
                     committee);
                let closure = Tx_dag.ancestor_closure state.dag subject in
                Array.iter
                  (fun peer ->
                    Engine.send engine ~src:i ~dst:(Node_id.to_int peer)
                      (Query { closure; subject }))
                  committee
              end
            end)
  done;
  Engine.run_until engine c.steps;
  (* --- Results --- *)
  let a = conflict_a.Tx_dag.Tx.id and b = conflict_b.Tx_dag.Tx.id in
  let accepted_a = ref 0 and accepted_b = ref 0 in
  let virtuous_fracs = ref [] in
  let accept_times = ref [] in
  Array.iter
    (fun state ->
      let acc id = Tx_dag.accepted state.dag id in
      let known_and id = Tx_dag.known state.dag id && acc id in
      if known_and a then incr accepted_a;
      if known_and b then incr accepted_b;
      let virtuous_ids = List.init virtuous_txs (fun v -> 3 + v) in
      let accepted_virtuous =
        List.length (List.filter known_and virtuous_ids)
      in
      virtuous_fracs :=
        (float_of_int accepted_virtuous /. float_of_int (max 1 virtuous_txs))
        :: !virtuous_fracs;
      List.iter (fun (_, t) -> accept_times := t :: !accept_times) state.accept_times)
    states;
  (* Safety: conflicting transactions must not both be accepted anywhere
     (per node is guaranteed by the conflict-set rule; across nodes we
     check no split-brain). *)
  let safety = !accepted_a = 0 || !accepted_b = 0 in
  {
    safety;
    conflict_resolved_fraction =
      float_of_int (!accepted_a + !accepted_b) /. float_of_int (max 1 q);
    virtuous_accepted_fraction =
      (match !virtuous_fracs with
      | [] -> 0.0
      | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l));
    mean_acceptance_time =
      (match !accept_times with
      | [] -> Float.nan
      | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l));
    committee_byz = Basalt_analysis.Stats.Online.mean committee_byz_acc;
    queries = !queries;
  }
