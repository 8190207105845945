(* Tests for basalt.avalanche: Snowball consensus, the consensus network,
   and the simulated live deployment. *)

open Basalt_avalanche

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Snowball --- *)

let sb_color_helpers () =
  check_bool "equal" true (Snowball.color_equal Snowball.Red Snowball.Red);
  check_bool "not equal" false (Snowball.color_equal Snowball.Red Snowball.Blue);
  check_bool "opposite" true
    (Snowball.color_equal (Snowball.opposite Snowball.Red) Snowball.Blue)

let votes color n = List.init n (fun _ -> color)

let sb_initial_state () =
  let t = Snowball.create Snowball.Red in
  check_bool "prefers initial" true
    (Snowball.color_equal (Snowball.preference t) Snowball.Red);
  check_bool "undecided" false (Snowball.decided t);
  check_bool "no decision" true (Snowball.decision t = None)

let sb_quorum_updates () =
  let t = Snowball.create Snowball.Red in
  Snowball.register_votes t (votes Snowball.Blue 7 @ votes Snowball.Red 3);
  check_bool "preference flipped" true
    (Snowball.color_equal (Snowball.preference t) Snowball.Blue)

(* The streak is seen through finality: beta = 12 consecutive quorums
   for one color decide, so a reset shows as a later decision. *)
let quorums t color n =
  for _ = 1 to n do
    Snowball.register_votes t (votes color 8)
  done

let sb_no_quorum_resets_streak () =
  let t = Snowball.create Snowball.Red in
  quorums t Snowball.Red 1;
  Snowball.register_votes t (votes Snowball.Red 5 @ votes Snowball.Blue 5);
  quorums t Snowball.Red 11;
  check_bool "streak reset on no quorum" false (Snowball.decided t);
  quorums t Snowball.Red 1;
  check_bool "decided after 12 fresh quorums" true (Snowball.decided t)

let sb_color_flip_restarts_streak () =
  let t = Snowball.create Snowball.Red in
  quorums t Snowball.Red 2;
  quorums t Snowball.Blue 11;
  check_bool "streak restarted at the flip" false (Snowball.decided t);
  quorums t Snowball.Blue 1;
  check_bool "decided blue" true (Snowball.decision t = Some Snowball.Blue)

let sb_decides_after_beta () =
  let t = Snowball.create Snowball.Blue in
  (* beta = 12 consecutive quorums finalise. *)
  for _ = 1 to 11 do
    Snowball.register_votes t (votes Snowball.Red 8)
  done;
  check_bool "undecided after 11" false (Snowball.decided t);
  Snowball.register_votes t (votes Snowball.Red 8);
  check_bool "decided" true (Snowball.decided t);
  check_bool "decided red" true (Snowball.decision t = Some Snowball.Red);
  (* After decision the instance is frozen. *)
  Snowball.register_votes t (votes Snowball.Blue 10);
  check_bool "frozen" true (Snowball.decision t = Some Snowball.Red)

let sb_confidence_governs_preference () =
  let t = Snowball.create Snowball.Red in
  Snowball.register_votes t (votes Snowball.Red 8);
  Snowball.register_votes t (votes Snowball.Red 8);
  (* One blue quorum does not flip (confidence 1 < red's 2). *)
  Snowball.register_votes t (votes Snowball.Blue 8);
  check_bool "keeps red (snowball memory)" true
    (Snowball.color_equal (Snowball.preference t) Snowball.Red);
  (* Two more blue quorums overtake. *)
  Snowball.register_votes t (votes Snowball.Blue 8);
  Snowball.register_votes t (votes Snowball.Blue 8);
  check_bool "flips to blue" true
    (Snowball.color_equal (Snowball.preference t) Snowball.Blue)

(* --- Tx_dag --- *)

let tx id parents conflict = { Tx_dag.Tx.id; parents; conflict }

let dag_genesis () =
  let d = Tx_dag.create () in
  check_bool "genesis known" true (Tx_dag.known d 0);
  check_bool "genesis accepted" true (Tx_dag.accepted d 0);
  check_bool "genesis preferred" true (Tx_dag.is_strongly_preferred d 0);
  check_int "one tx" 1 (List.length (Tx_dag.transactions d))

let dag_insert () =
  let d = Tx_dag.create () in
  check_bool "insert ok" true (Result.is_ok (Tx_dag.insert d (tx 1 [ 0 ] 7)));
  check_bool "idempotent" true (Result.is_ok (Tx_dag.insert d (tx 1 [ 0 ] 7)));
  check_bool "unknown parent rejected" true
    (Result.is_error (Tx_dag.insert d (tx 9 [ 404 ] 7)));
  check_bool "known" true (Tx_dag.known d 1);
  Alcotest.(check (list int)) "order" [ 0; 1 ] (Tx_dag.transactions d)

let dag_conflict_sets () =
  let d = Tx_dag.create () in
  ignore (Tx_dag.insert d (tx 1 [ 0 ] 7));
  ignore (Tx_dag.insert d (tx 2 [ 0 ] 7));
  ignore (Tx_dag.insert d (tx 3 [ 0 ] 8));
  (* First inserted member is initially preferred; with genesis as the
     only parent, preferred and strongly preferred coincide. *)
  check_bool "first preferred" true (Tx_dag.is_strongly_preferred d 1);
  check_bool "second not" false (Tx_dag.is_strongly_preferred d 2);
  check_bool "singleton preferred" true (Tx_dag.is_strongly_preferred d 3)

let dag_strong_preference () =
  let d = Tx_dag.create () in
  ignore (Tx_dag.insert d (tx 1 [ 0 ] 7));
  ignore (Tx_dag.insert d (tx 2 [ 0 ] 7));
  ignore (Tx_dag.insert d (tx 3 [ 2 ] 8));
  (* tx 3 sits on the *non-preferred* branch: not strongly preferred
     even though its own set is singleton. *)
  check_bool "ancestor not preferred" false (Tx_dag.is_strongly_preferred d 3);
  (* Flip the conflict by giving tx 2 chits. *)
  Tx_dag.record_query_success d 2;
  check_bool "preference flipped" true (Tx_dag.is_strongly_preferred d 2);
  check_bool "now strongly preferred" true (Tx_dag.is_strongly_preferred d 3)

let dag_confidence_progeny () =
  (* Confidence is seen through preference: txs 1 and 2 conflict, and
     the chits of their descendants decide which one is preferred. *)
  let d = Tx_dag.create () in
  ignore (Tx_dag.insert d (tx 1 [ 0 ] 7));
  ignore (Tx_dag.insert d (tx 2 [ 0 ] 7));
  ignore (Tx_dag.insert d (tx 3 [ 2 ] 8));
  ignore (Tx_dag.insert d (tx 4 [ 3 ] 9));
  ignore (Tx_dag.insert d (tx 5 [ 1 ] 10));
  check_bool "first inserted preferred" true (Tx_dag.is_strongly_preferred d 1);
  Tx_dag.record_query_success d 4;
  (* One chit on the leaf counts toward every ancestor's confidence. *)
  check_bool "a grandchild's chit flips the conflict" true
    (Tx_dag.is_strongly_preferred d 2);
  check_bool "the whole branch preferred" true
    (Tx_dag.is_strongly_preferred d 4);
  Tx_dag.record_query_success d 1;
  check_bool "a tie keeps the incumbent" true (Tx_dag.is_strongly_preferred d 2);
  Tx_dag.record_query_success d 5;
  check_bool "chits accumulate over progeny" true
    (Tx_dag.is_strongly_preferred d 1)

let dag_acceptance_rules () =
  let d = Tx_dag.create () in
  ignore (Tx_dag.insert d (tx 1 [ 0 ] 7));
  (* Build a chain of singleton-set descendants; each success counts for
     tx 1's conflict set (consecutive successes of its preferred). *)
  for i = 2 to 8 do
    ignore (Tx_dag.insert d (tx i [ i - 1 ] (100 + i)));
    Tx_dag.record_query_success d i
  done;
  (* After 7 descendant successes (plus none for itself), tx 1 has
     count >= beta1 = 5 in a singleton set. *)
  check_bool "safe early commitment" true (Tx_dag.accepted d 1);
  (* tx 5 has 4 consecutive successes, one short of beta1. *)
  check_bool "not before beta1" false (Tx_dag.accepted d 5);
  (* A failure resets the streak. *)
  Tx_dag.record_query_failure d 8;
  check_bool "reset by failure" false (Tx_dag.accepted d 1)

let dag_acceptance_needs_ancestors () =
  let d = Tx_dag.create () in
  ignore (Tx_dag.insert d (tx 1 [ 0 ] 7));
  ignore (Tx_dag.insert d (tx 2 [ 0 ] 7));
  (* conflicted parent *)
  ignore (Tx_dag.insert d (tx 3 [ 1 ] 8));
  for _ = 1 to 6 do
    Tx_dag.record_query_success d 3
  done;
  (* tx 3 has beta1 successes but its parent's set is conflicted and
     lacks beta2 = 8 consecutive successes. *)
  check_bool "parent gates acceptance" false (Tx_dag.accepted d 3);
  for _ = 1 to 2 do
    Tx_dag.record_query_success d 3
  done;
  check_bool "accepted once the parent has beta2" true (Tx_dag.accepted d 3)

let dag_ancestor_closure () =
  let d = Tx_dag.create () in
  ignore (Tx_dag.insert d (tx 1 [ 0 ] 7));
  ignore (Tx_dag.insert d (tx 2 [ 1 ] 8));
  let closure = Tx_dag.ancestor_closure d 2 in
  Alcotest.(check (list int))
    "topological, parents first" [ 0; 1; 2 ]
    (List.map (fun t -> t.Tx_dag.Tx.id) closure);
  (* Replaying a closure into a fresh DAG must always succeed. *)
  let d2 = Tx_dag.create () in
  List.iter
    (fun t -> check_bool "replay ok" true (Result.is_ok (Tx_dag.insert d2 t)))
    closure

(* Property: for any randomly grown DAG, every transaction's ancestor
   closure replays cleanly into a fresh DAG (parents always precede
   children). *)

let prop_closure_replayable =
  QCheck2.Test.make ~name:"ancestor closures always replay" ~count:200
    ~print:
      QCheck2.Print.(list (pair int int))
    QCheck2.Gen.(list_size (int_bound 20) (pair (int_bound 9) (int_bound 3)))
    (fun spec ->
      let d = Tx_dag.create () in
      (* Grow a DAG: each entry attaches a new tx to an existing one. *)
      let next_id = ref 1 in
      List.iter
        (fun (parent_hint, conflict) ->
          let existing = Tx_dag.transactions d in
          let parent =
            List.nth existing (parent_hint mod List.length existing)
          in
          let tx =
            { Tx_dag.Tx.id = !next_id; parents = [ parent ]; conflict }
          in
          incr next_id;
          ignore (Tx_dag.insert d tx))
        spec;
      List.for_all
        (fun id ->
          let closure = Tx_dag.ancestor_closure d id in
          let fresh = Tx_dag.create () in
          List.for_all
            (fun tx -> Result.is_ok (Tx_dag.insert fresh tx))
            closure
          && Tx_dag.known fresh id)
        (Tx_dag.transactions d))

(* --- Dag_network --- *)

let dag_network_validation () =
  Alcotest.check_raises "steps within the warm-up"
    (Invalid_argument "Dag_network.config: steps <= warmup") (fun () ->
      ignore
        (Dag_network.config ~n:100 ~sampling:Network.Full_knowledge
           ~steps:25.0))

let dag_network_safety_and_liveness () =
  let r =
    Dag_network.run
      (Dag_network.config ~n:100 ~steps:150.0
         ~sampling:
           (Network.Service
              (Basalt_sim.Scenario.Basalt (Basalt_core.Config.make ~v:24 ~k:6 ()))))
  in
  check_bool "safety" true r.Dag_network.safety;
  check_bool "conflict resolved somewhere" true
    (r.Dag_network.conflict_resolved_fraction > 0.2);
  check_bool "virtuous progress" true
    (r.Dag_network.virtuous_accepted_fraction > 0.2);
  check_bool "committee pollution bounded" true (r.Dag_network.committee_byz < 0.3)

(* --- Network --- *)

(* The three committee sources [examples/consensus_sampling.ml]
   compares, each run once and shared by the tests below. *)
let full_knowledge = lazy (Network.run Network.Full_knowledge)

let basalt =
  lazy
    (Network.run
       (Network.Service
          (Basalt_sim.Scenario.Basalt (Basalt_core.Config.make ~v:40 ~k:10 ()))))

let classic =
  lazy
    (Network.run
       (Network.Service
          (Basalt_sim.Scenario.Classic (Basalt_sps.Classic.config ~l:40 ()))))

(* The correct nodes, queried through Basalt committees, all decide the
   70% Red majority and agree. *)
let net_honest_convergence () =
  let r = Lazy.force basalt in
  check_bool "all decide" true (r.Network.decided_fraction > 0.99);
  check_bool "agreement" true r.Network.agreement;
  check_bool "majority wins" true (r.Network.decided_red_fraction > 0.99)

let net_full_knowledge () =
  let r = Lazy.force full_knowledge in
  check_bool "decides under attack" true (r.Network.decided_fraction > 0.5);
  check_bool "agreement" true r.Network.agreement;
  check_bool "committee pollution near f" true (r.Network.committee_byz < 0.3)

let net_queries_counted () =
  check_bool "queries sent" true
    ((Lazy.force full_knowledge).Network.queries_sent > 0)

(* The example's table rows, formatted as it prints them, pinned to its
   output: nothing else runs the network at its constants. *)
let net_matches_example () =
  let row (name, r) =
    Printf.sprintf "%-15s %-9.2f %-7b %-9.2f %-11.1f %-14.3f" name
      r.Network.decided_fraction r.Network.agreement
      r.Network.decided_red_fraction r.Network.mean_decision_time
      r.Network.committee_byz
  in
  Alcotest.(check (list string))
    "consensus_sampling rows"
    [
      "full-knowledge  1.00      true    1.00      49.0        0.152         ";
      "basalt          1.00      true    1.00      65.5        0.210         ";
      "classic         0.00      true    nan       nan         0.894         ";
    ]
    (List.map row
       [
         ("full-knowledge", Lazy.force full_knowledge);
         ("basalt", Lazy.force basalt);
         ("classic", Lazy.force classic);
       ])

(* --- Deployment --- *)

let deploy_config_validation () =
  Alcotest.check_raises "adversarial >= n"
    (Invalid_argument "Deployment.config: adversarial out of [0, n)") (fun () ->
      ignore (Deployment.config ~n:10 ~adversarial:10 ~v:4 ~steps:10.0))

let deploy_result_shape () =
  let r =
    Deployment.run (Deployment.config ~n:120 ~adversarial:24 ~v:30 ~steps:80.0)
  in
  check_bool "true proportion" true
    (Float.abs (r.Deployment.true_proportion -. 0.2) < 1e-9);
  check_bool "basalt prop in [0,1]" true
    (r.Deployment.basalt_proportion >= 0.0 && r.Deployment.basalt_proportion <= 1.0);
  check_bool "full-knowledge near truth" true
    (Float.abs (r.Deployment.full_knowledge_proportion -. 0.2) < 0.1);
  check_bool "witness emitted samples" true (r.Deployment.witness_samples > 0)

let deploy_witness_survives () =
  let r =
    Deployment.run (Deployment.config ~n:120 ~adversarial:24 ~v:30 ~steps:80.0)
  in
  check_bool "eclipse resisted" false r.Deployment.witness_isolated;
  (* The §5 headline: the Basalt-derived sampler's malicious proportion
     stays close to the ground truth despite the concentrated attack. *)
  check_bool "sampler near truth" true
    (Float.abs (r.Deployment.basalt_proportion -. r.Deployment.true_proportion)
    < 0.12)

let () =
  Alcotest.run "avalanche"
    [
      ( "snowball",
        [
          Alcotest.test_case "color helpers" `Quick sb_color_helpers;
          Alcotest.test_case "initial state" `Quick sb_initial_state;
          Alcotest.test_case "quorum updates" `Quick sb_quorum_updates;
          Alcotest.test_case "no quorum resets streak" `Quick
            sb_no_quorum_resets_streak;
          Alcotest.test_case "color flip restarts streak" `Quick
            sb_color_flip_restarts_streak;
          Alcotest.test_case "decides after beta" `Quick sb_decides_after_beta;
          Alcotest.test_case "confidence governs preference" `Quick
            sb_confidence_governs_preference;
        ] );
      ( "tx_dag",
        [
          Alcotest.test_case "genesis" `Quick dag_genesis;
          Alcotest.test_case "insert" `Quick dag_insert;
          Alcotest.test_case "conflict sets" `Quick dag_conflict_sets;
          Alcotest.test_case "strong preference" `Quick dag_strong_preference;
          Alcotest.test_case "confidence over progeny" `Quick
            dag_confidence_progeny;
          Alcotest.test_case "acceptance rules" `Quick dag_acceptance_rules;
          Alcotest.test_case "acceptance needs ancestors" `Quick
            dag_acceptance_needs_ancestors;
          Alcotest.test_case "ancestor closure" `Quick dag_ancestor_closure;
          Prop.case ~suite:"tx_dag" prop_closure_replayable;
        ] );
      ( "dag_network",
        [
          Alcotest.test_case "config validation" `Quick dag_network_validation;
          Alcotest.test_case "safety and liveness" `Slow
            dag_network_safety_and_liveness;
        ] );
      ( "network",
        [
          Alcotest.test_case "honest convergence" `Slow net_honest_convergence;
          Alcotest.test_case "full knowledge" `Slow net_full_knowledge;
          Alcotest.test_case "queries counted" `Slow net_queries_counted;
          Alcotest.test_case "matches the example" `Slow net_matches_example;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "config validation" `Quick deploy_config_validation;
          Alcotest.test_case "result shape" `Slow deploy_result_shape;
          Alcotest.test_case "witness survives" `Slow deploy_witness_survives;
        ] );
    ]
