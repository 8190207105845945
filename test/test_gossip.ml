(* Tests for basalt.gossip: the epidemic broadcast layer.

   Three levels: unit tests drive one node's handlers directly through a
   recording harness; the mini-network tests drain a synchronous
   in-memory message queue across a handful of nodes; the simulation
   tests mount the layer on the runner's app hook exactly as the
   [broadcast] experiment does and assert the end-to-end dissemination
   properties (exactly-once, full delivery under a fault-free network,
   degree bounds, bit-identical results at any pool width). *)

module Gossip = Basalt_gossip.Gossip
module Delivery = Basalt_gossip.Delivery
module Message = Basalt_proto.Message
module Node_id = Basalt_proto.Node_id
module Rps = Basalt_proto.Rps
module Wire = Basalt_codec.Wire
module Rng = Basalt_prng.Rng
module Scenario = Basalt_sim.Scenario
module Runner = Basalt_sim.Runner
module Node = Basalt_assembly.Node
module Pool = Basalt_parallel.Pool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let id = Node_id.of_int
let mid ~origin ~seqno = { Message.origin = id origin; seqno }

(* --- recording harness around one node --- *)

type harness = {
  g : Gossip.t;
  sent : (int * Message.t) list ref;  (* (dst, frame), oldest first *)
  delivered : (Message.mid * bytes) list ref;
}

(* The layer's fixed mesh bounds: target degree, churn floor, cap. *)
let degree = 4
let degree_lo = 2
let degree_hi = 8

let harness ?(node = 0) ?(view = fun () -> [||]) ?(seed = 42) () =
  let sent = ref [] in
  let delivered = ref [] in
  let g =
    Gossip.create ~node:(id node) ~view ~rng:(Rng.create ~seed)
      ~send:(fun ~dst msg -> sent := !sent @ [ (Node_id.to_int dst, msg) ])
      ~deliver:(fun m payload -> delivered := !delivered @ [ (m, payload) ])
      ()
  in
  { g; sent; delivered }

let sent_to h dst =
  List.filter_map
    (fun (d, msg) -> if d = dst then Some msg else None)
    !(h.sent)

let count_frames h pred = List.length (List.filter pred !(h.sent))

(* --- publish --- *)

let publish_delivers_locally () =
  let h = harness () in
  let payload = Bytes.of_string "hello" in
  let m = Gossip.publish h.g payload in
  check_int "origin is self" 0 (Node_id.to_int m.Message.origin);
  check_int "first seqno" 0 m.Message.seqno;
  check_int "delivered locally once" 1 (List.length !(h.delivered));
  check_int "no mesh, no sends" 0 (List.length !(h.sent));
  let m2 = Gossip.publish h.g payload in
  check_int "seqno increments" 1 m2.Message.seqno;
  check_int "stats published" 2 (Gossip.stats h.g).Gossip.published

let publish_rejects_oversized () =
  let h = harness () in
  Alcotest.check_raises "too large"
    (Invalid_argument "Gossip.publish: payload too large") (fun () ->
      ignore (Gossip.publish h.g (Bytes.create (Wire.max_payload + 1))))

let publish_pushes_to_mesh () =
  let h = harness () in
  Gossip.on_samples h.g [ id 1; id 2; id 3; id 4; id 5 ];
  Gossip.heartbeat h.g;
  check_int "mesh topped up to degree" degree
    (List.length (Gossip.eager_peers h.g));
  h.sent := [];
  let payload = Bytes.of_string "data" in
  ignore (Gossip.publish h.g payload);
  let data_frames =
    count_frames h (fun (_, msg) ->
        match msg with
        | Message.Gossip { hops = 1; _ } -> true
        | _ -> false)
  in
  check_int "one data frame per eager peer" (List.length (Gossip.eager_peers h.g))
    data_frames

(* --- Rps.null / empty view --- *)

let null_rps_tolerated () =
  let sent = ref 0 in
  let delivered = ref 0 in
  let rps = Rps.null (id 7) in
  let g =
    Gossip.create ~node:rps.Rps.node ~view:rps.Rps.current_view
      ~rng:(Rng.create ~seed:1)
      ~send:(fun ~dst:_ _ -> incr sent)
      ~deliver:(fun _ _ -> incr delivered)
      ()
  in
  let mid = Gossip.publish g (Bytes.of_string "into the void") in
  check_int "node id from rps" 7 (Node_id.to_int mid.Message.origin);
  Gossip.heartbeat g;
  Gossip.heartbeat g;
  Gossip.on_samples g [];
  check_int "local delivery still exact-once" 1 !delivered;
  check_int "an empty view mutes the layer" 0 !sent;
  check_int "mesh stays empty" 0 (List.length (Gossip.eager_peers g))

(* --- data path --- *)

let data_frame ~origin ~seqno ~hops payload =
  Message.Gossip { mid = mid ~origin ~seqno; hops; payload }

let dedup_never_redelivers () =
  let h = harness () in
  let frame = data_frame ~origin:9 ~seqno:0 ~hops:1 (Bytes.of_string "x") in
  check_bool "consumed" true (Gossip.on_message h.g ~from:(id 9) frame);
  check_bool "dup consumed" true (Gossip.on_message h.g ~from:(id 3) frame);
  check_bool "dup again" true (Gossip.on_message h.g ~from:(id 9) frame);
  check_int "delivered once" 1 (List.length !(h.delivered));
  check_int "duplicates counted" 2 (Gossip.stats h.g).Gossip.duplicates

let sender_of_new_data_joins_mesh () =
  let h = harness () in
  ignore
    (Gossip.on_message h.g ~from:(id 9)
       (data_frame ~origin:9 ~seqno:0 ~hops:1 (Bytes.of_string "x")));
  check_bool "sender grafted" true
    (List.exists (Node_id.equal (id 9)) (Gossip.eager_peers h.g))

let iwant_served_from_cache () =
  let h = harness () in
  let payload = Bytes.of_string "served" in
  let m = Gossip.publish h.g payload in
  h.sent := [];
  ignore (Gossip.on_message h.g ~from:(id 5) (Message.Iwant [| m |]));
  (match sent_to h 5 with
  | [ Message.Gossip { mid = m'; hops; payload = p } ] ->
      check_bool "same mid" true (Message.mid_equal m m');
      check_int "hops bumped" 1 hops;
      check_bool "same payload" true (Bytes.equal payload p)
  | _ -> Alcotest.fail "expected exactly one data frame to the requester");
  h.sent := [];
  ignore
    (Gossip.on_message h.g ~from:(id 5)
       (Message.Iwant [| mid ~origin:3 ~seqno:77 |]));
  check_int "unknown mid is ignored" 0 (List.length !(h.sent))

let ihave_triggers_one_iwant () =
  let h = harness () in
  let m1 = mid ~origin:2 ~seqno:0 and m2 = mid ~origin:3 ~seqno:1 in
  ignore (Gossip.on_message h.g ~from:(id 4) (Message.Ihave [| m1; m2 |]));
  (match sent_to h 4 with
  | [ Message.Iwant ms ] -> check_int "both requested" 2 (Array.length ms)
  | _ -> Alcotest.fail "expected one IWant to the advertiser");
  h.sent := [];
  ignore (Gossip.on_message h.g ~from:(id 5) (Message.Ihave [| m1 |]));
  check_int "already-wanted mid not re-requested" 0 (List.length !(h.sent));
  ignore
    (Gossip.on_message h.g ~from:(id 4)
       (data_frame ~origin:2 ~seqno:0 ~hops:2 (Bytes.of_string "m1")));
  check_int "recovered delivery" 1 (List.length !(h.delivered))

let iwant_recovery_rotates_holders () =
  let h = harness () in
  let m = mid ~origin:2 ~seqno:0 in
  ignore (Gossip.on_message h.g ~from:(id 4) (Message.Ihave [| m |]));
  h.sent := [];
  Gossip.heartbeat h.g;
  let grafts =
    count_frames h (fun (d, msg) ->
        match msg with Message.Graft -> d = 4 | _ -> false)
  in
  let rerequests =
    count_frames h (fun (d, msg) ->
        match msg with Message.Iwant _ -> d = 4 | _ -> false)
  in
  check_int "grafted towards the advertiser" 1 grafts;
  check_int "re-requested from the advertiser" 1 rerequests

(* --- mesh management --- *)

let graft_refused_at_capacity () =
  let h = harness () in
  for p = 1 to degree_hi do
    ignore (Gossip.on_message h.g ~from:(id p) Message.Graft)
  done;
  check_int "grafts accepted up to hi" degree_hi (List.length (Gossip.eager_peers h.g));
  h.sent := [];
  let refused = degree_hi + 1 in
  ignore (Gossip.on_message h.g ~from:(id refused) Message.Graft);
  check_int "over-capacity graft refused" degree_hi (List.length (Gossip.eager_peers h.g));
  (match sent_to h refused with
  | [ Message.Prune ] -> ()
  | _ -> Alcotest.fail "expected a Prune back to the refused grafter");
  ignore (Gossip.on_message h.g ~from:(id 1) Message.Prune);
  check_int "prune removes" (degree_hi - 1) (List.length (Gossip.eager_peers h.g))

let heartbeat_rotates_mesh () =
  let h = harness () in
  Gossip.on_samples h.g [ id 1; id 2; id 3; id 4; id 5; id 6 ];
  Gossip.heartbeat h.g;
  let before = Gossip.eager_peers h.g in
  check_int "at target degree" degree
    (List.length before);
  h.sent := [];
  Gossip.heartbeat h.g;
  check_int "still at target degree" degree
    (List.length (Gossip.eager_peers h.g));
  (* The oldest eager peer is always demoted (degree > degree_lo), even
     if the top-up happens to re-select it from the sample pool. *)
  let oldest = Node_id.to_int (List.hd before) in
  check_bool "oldest peer was pruned" true
    (List.exists
       (fun (d, msg) ->
         d = oldest && match msg with Message.Prune -> true | _ -> false)
       !(h.sent))

let sampler_frames_fall_through () =
  let h = harness () in
  check_bool "pull request" false
    (Gossip.on_message h.g ~from:(id 1) Message.Pull_request);
  check_bool "push" false
    (Gossip.on_message h.g ~from:(id 1) (Message.Push [| id 2 |]));
  check_bool "graft" true (Gossip.on_message h.g ~from:(id 1) Message.Graft);
  check_bool "prune" true (Gossip.on_message h.g ~from:(id 1) Message.Prune)

(* --- mini-network: synchronous queue over n nodes --- *)

type net = {
  nodes : Gossip.t array;
  queue : (int * int * Message.t) Queue.t;  (* src, dst, frame *)
  tracker : Delivery.t;
}

let mini_network ~n ~seed () =
  let queue = Queue.create () in
  let tracker = Delivery.create ~n () in
  let master = Rng.create ~seed in
  let all = Array.init n id in
  let nodes =
    Array.init n (fun i ->
        Gossip.create ~node:(id i)
          ~view:(fun () -> Array.of_list (List.filter (fun p -> Node_id.to_int p <> i) (Array.to_list all)))
          ~rng:(Rng.split master)
          ~send:(fun ~dst msg -> Queue.push (i, Node_id.to_int dst, msg) queue)
          ~deliver:(fun m _ -> Delivery.delivered tracker m ~node:i ~time:0.0)
          ())
  in
  { nodes; queue; tracker }

(* Delivers every queued frame, and the frames they cause, except those
   [lost] drops. *)
let drain ?(lost = fun _ -> false) net =
  while not (Queue.is_empty net.queue) do
    let src, dst, msg = Queue.pop net.queue in
    if not (lost msg) then
      ignore (Gossip.on_message net.nodes.(dst) ~from:(id src) msg)
  done

let feed_samples net =
  let n = Array.length net.nodes in
  Array.iteri
    (fun i g ->
      Gossip.on_samples g
        (List.filter_map
           (fun j -> if j = i then None else Some (id j))
           (List.init n Fun.id)))
    net.nodes

let mini_eager_flood () =
  let net = mini_network ~n:10 ~seed:7 () in
  feed_samples net;
  Array.iter Gossip.heartbeat net.nodes;
  drain net;
  let m = Gossip.publish net.nodes.(0) (Bytes.of_string "flood") in
  Delivery.published net.tracker m ~time:0.0;
  drain net;
  check_bool "everyone delivered"
    true
    (Delivery.fraction net.tracker = 1.0);
  check_int "exactly once each" 0 (Delivery.duplicate_deliveries net.tracker);
  Array.iter
    (fun g ->
      check_bool "degree within bounds" true
        (List.length (Gossip.eager_peers g) <= degree_hi))
    net.nodes

let mini_lazy_recovery () =
  (* Every eager push of the publish is lost, so only the origin holds
     the message; the IHave/IWant rounds must close the gap. *)
  let net = mini_network ~n:8 ~seed:3 () in
  feed_samples net;
  Array.iter Gossip.heartbeat net.nodes;
  drain net;
  let m = Gossip.publish net.nodes.(0) (Bytes.of_string "lazy") in
  Delivery.published net.tracker m ~time:0.0;
  drain net ~lost:(function Message.Gossip _ -> true | _ -> false);
  check_bool "eager pushes lost" true (Delivery.fraction net.tracker < 1.0);
  (* A few digest/recovery rounds: each heartbeat advertises, each drain
     answers the IWants. *)
  for _ = 1 to 4 do
    Array.iter Gossip.heartbeat net.nodes;
    drain net
  done;
  check_bool "lazy path completes delivery" true
    (Delivery.fraction net.tracker = 1.0);
  check_int "still exactly once" 0 (Delivery.duplicate_deliveries net.tracker)

(* --- simulation: the runner's app hook, as the broadcast experiment --- *)

let publishes = 3

let run_sim ?fault ?(n = 80) ?obs ~seed () =
  let steps = 40.0 in
  let s =
    Scenario.make ~name:"test-broadcast" ~n ~f:0.0 ~steps ~seed ?fault
      ~protocol:(Scenario.Basalt (Basalt_core.Config.make ~v:16 ()))
      ~latency:(Basalt_engine.Link.Latency.Uniform { lo = 0.05; hi = 0.2 })
      ()
  in
  let q = Scenario.num_correct s in
  let tracker = Delivery.create ~n:q () in
  let gossips = Array.make q None in
  let app ctx =
    List.iter
      (fun k ->
        ctx.Runner.app_schedule ~delay:(15.0 +. float_of_int k) (fun () ->
            let p = (5 * k) + 1 in
            if ctx.Runner.app_alive p then
              match gossips.(p) with
              | Some g ->
                  let m =
                    Gossip.publish g (Bytes.make 16 (Char.chr (97 + k)))
                  in
                  Delivery.published tracker m ~time:(ctx.Runner.app_now ())
              | None -> ()))
      (List.init publishes Fun.id);
    fun i ->
      let g =
        Gossip.create ~obs:ctx.Runner.app_obs ~node:(id i)
          ~view:(fun () -> ctx.Runner.app_view i)
          ~rng:(Rng.split ctx.Runner.app_rng)
          ~send:(fun ~dst msg -> ctx.Runner.app_send ~src:i ~dst msg)
          ~deliver:(fun m _ ->
            Delivery.delivered tracker m ~node:i ~time:(ctx.Runner.app_now ()))
          ()
      in
      gossips.(i) <- Some g;
      Node.gossip g
  in
  let result = Runner.run ~app ?obs s in
  (tracker, gossips, result)

let sim_exact_once_clean () =
  let tracker, gossips, _ = run_sim ~seed:11 () in
  check_bool "full delivery on a fault-free network" true
    (Delivery.fraction tracker = 1.0);
  check_int "exactly-once at every node" 0
    (Delivery.duplicate_deliveries tracker);
  Array.iter
    (function
      | None -> ()
      | Some g ->
          let d = List.length (Gossip.eager_peers g) in
          check_bool "degree within [lo, hi]" true
            (d >= degree_lo
            && d <= degree_hi))
    gossips

let sim_exact_once_under_faults () =
  (* Loss delays delivery and triggers the recovery path, but dedup must
     still keep the deliver callback exactly-once. *)
  let fault =
    Basalt_engine.Fault.make
      ~base:
        (Basalt_engine.Fault.link
           ~loss:(Basalt_engine.Link.Loss.Bernoulli 0.2) ())
      ()
  in
  let tracker, _, _ = run_sim ~fault ~seed:12 () in
  check_int "exactly-once survives loss" 0
    (Delivery.duplicate_deliveries tracker);
  check_bool "most deliveries still happen" true
    (Delivery.fraction tracker > 0.9)

(* Every node's layer holds its own handles onto the run's one registry:
   per-node [stats] are that node's counts, and they sum to the
   [gossip.*] totals.  Loss drives the digest, recovery and mesh-repair
   paths, so every counter moves. *)
let sim_stats_on_shared_registry () =
  let fault =
    Basalt_engine.Fault.make
      ~base:
        (Basalt_engine.Fault.link
           ~loss:(Basalt_engine.Link.Loss.Bernoulli 0.2) ())
      ()
  in
  let _, gossips, result = run_sim ~fault ~obs:true ~seed:13 () in
  let obs =
    match result.Runner.obs with
    | Some obs -> obs
    | None -> Alcotest.fail "run has no registry"
  in
  let total name =
    Basalt_obs.Obs.Counter.value (Basalt_obs.Obs.counter obs ("gossip." ^ name))
  in
  let sum f =
    Array.fold_left
      (fun acc -> function None -> acc | Some g -> acc + f (Gossip.stats g))
      0 gossips
  in
  List.iter
    (fun (name, f) ->
      check_bool (name ^ " counted") true (total name > 0);
      check_int (name ^ ": summed stats equal the registry total") (total name)
        (sum f))
    [
      ("published", fun s -> s.Gossip.published);
      ("delivered", fun s -> s.Gossip.delivered);
      ("duplicates", fun s -> s.Gossip.duplicates);
      ("ihave", fun s -> s.Gossip.ihave_sent);
      ("iwant", fun s -> s.Gossip.iwant_sent);
      ("grafts", fun s -> s.Gossip.grafts_sent);
      ("prunes", fun s -> s.Gossip.prunes_sent);
    ]

let summary_of tracker gossips =
  let stats =
    Array.fold_left
      (fun (d, dup, ih, iw) -> function
        | None -> (d, dup, ih, iw)
        | Some g ->
            let s = Gossip.stats g in
            ( d + s.Gossip.delivered,
              dup + s.Gossip.duplicates,
              ih + s.Gossip.ihave_sent,
              iw + s.Gossip.iwant_sent ))
      (0, 0, 0, 0) gossips
  in
  (Delivery.fraction tracker, Delivery.duplicate_deliveries tracker, stats)

let sim_pool_determinism () =
  let seeds = [ 21; 22; 23; 24 ] in
  let task seed =
    let tracker, gossips, _ = run_sim ~n:60 ~seed () in
    summary_of tracker gossips
  in
  let with_domains d =
    let pool = Pool.create ~domains:d () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Pool.map ~pool task seeds)
  in
  let sequential = List.map task seeds in
  let one = with_domains 1 in
  let four = with_domains 4 in
  check_bool "pool of 1 matches in-process" true (sequential = one);
  check_bool "pool of 4 matches pool of 1" true (one = four)

(* --- properties --- *)

module Gen = QCheck2.Gen
module Test = QCheck2.Test
module Gens = Prop.Gens
module Print = QCheck2.Print

let prop_dedup_exact_once =
  let frame =
    Gen.map2
      (fun (sender, m) hops -> (sender, m, hops))
      (Gen.pair (Gen.int_range 1 8) (Gens.mid ~max_id:6 ()))
      (Gen.int_range 1 5)
  in
  Test.make ~name:"deliver fires exactly once per distinct mid" ~count:200
    ~print:
      (Print.list (fun (s, m, h) ->
           Printf.sprintf "(%d, %d#%d, %d)" s
             (Node_id.to_int m.Message.origin)
             m.Message.seqno h))
    (Gen.list_size (Gen.int_bound 40) frame)
    (fun frames ->
      let h = harness () in
      List.iter
        (fun (sender, m, hops) ->
          ignore
            (Gossip.on_message h.g ~from:(id sender)
               (Message.Gossip { mid = m; hops; payload = Bytes.empty })))
        frames;
      let distinct =
        List.sort_uniq compare
          (List.map
             (fun (_, m, _) -> (Node_id.to_int m.Message.origin, m.Message.seqno))
             frames)
      in
      List.length !(h.delivered) = List.length distinct)

type op =
  | Samples of int list
  | Heartbeat
  | Graft_from of int
  | Prune_from of int
  | Data_from of int * int

let apply_op h k = function
  | Samples ids -> Gossip.on_samples h.g (List.map id ids)
  | Heartbeat -> Gossip.heartbeat h.g
  | Graft_from p -> ignore (Gossip.on_message h.g ~from:(id p) Message.Graft)
  | Prune_from p -> ignore (Gossip.on_message h.g ~from:(id p) Message.Prune)
  | Data_from (p, seqno) ->
      ignore
        (Gossip.on_message h.g ~from:(id p)
           (data_frame ~origin:(1 + (seqno mod 9)) ~seqno:(k * 100) ~hops:1
              Bytes.empty))

let op_gen =
  Gen.frequency
    [
      ( 2,
        Gen.map
          (fun l -> Samples l)
          (Gen.list_size (Gen.int_bound 8) (Gen.int_range 1 20)) );
      (3, Gen.return Heartbeat);
      (3, Gen.map (fun p -> Graft_from p) (Gen.int_range 1 20));
      (2, Gen.map (fun p -> Prune_from p) (Gen.int_range 1 20));
      (3, Gen.map2 (fun p s -> Data_from (p, s)) (Gen.int_range 1 20)
          (Gen.int_bound 50));
    ]

let print_op = function
  | Samples l -> "Samples " ^ Print.list Print.int l
  | Heartbeat -> "Heartbeat"
  | Graft_from p -> Printf.sprintf "Graft_from %d" p
  | Prune_from p -> Printf.sprintf "Prune_from %d" p
  | Data_from (p, s) -> Printf.sprintf "Data_from (%d, %d)" p s

let prop_degree_bounded =
  Test.make ~name:"eager degree never exceeds degree_hi" ~count:200
    ~print:(Print.list print_op)
    (Gen.list_size (Gen.int_bound 60) op_gen)
    (fun ops ->
      let h = harness () in
      List.for_all
        (fun (k, op) ->
          apply_op h k op;
          List.length (Gossip.eager_peers h.g) <= degree_hi)
        (List.mapi (fun k op -> (k, op)) ops))

let prop_self_never_in_mesh =
  Test.make ~name:"the mesh never contains the local node" ~count:200
    ~print:(Print.list print_op)
    (Gen.list_size (Gen.int_bound 60) op_gen)
    (fun ops ->
      let h = harness () in
      List.iteri (fun k op -> apply_op h k op) ops;
      not (List.exists (Node_id.equal (id 0)) (Gossip.eager_peers h.g)))

let () =
  Alcotest.run "gossip"
    [
      ( "unit",
        [
          Alcotest.test_case "publish delivers locally" `Quick
            publish_delivers_locally;
          Alcotest.test_case "publish rejects oversized" `Quick
            publish_rejects_oversized;
          Alcotest.test_case "publish pushes to mesh" `Quick
            publish_pushes_to_mesh;
          Alcotest.test_case "null rps tolerated" `Quick null_rps_tolerated;
          Alcotest.test_case "dedup never redelivers" `Quick
            dedup_never_redelivers;
          Alcotest.test_case "data sender joins mesh" `Quick
            sender_of_new_data_joins_mesh;
          Alcotest.test_case "iwant served from cache" `Quick
            iwant_served_from_cache;
          Alcotest.test_case "ihave triggers one iwant" `Quick
            ihave_triggers_one_iwant;
          Alcotest.test_case "iwant recovery" `Quick
            iwant_recovery_rotates_holders;
          Alcotest.test_case "graft capacity" `Quick graft_refused_at_capacity;
          Alcotest.test_case "heartbeat rotation" `Quick heartbeat_rotates_mesh;
          Alcotest.test_case "sampler frames fall through" `Quick
            sampler_frames_fall_through;
        ] );
      ( "mini-network",
        [
          Alcotest.test_case "eager flood reaches everyone" `Quick
            mini_eager_flood;
          Alcotest.test_case "lazy recovery closes the gap" `Quick
            mini_lazy_recovery;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "exact-once, full delivery, clean" `Quick
            sim_exact_once_clean;
          Alcotest.test_case "stats on a shared registry" `Quick
            sim_stats_on_shared_registry;
          Alcotest.test_case "exact-once under loss" `Quick
            sim_exact_once_under_faults;
          Alcotest.test_case "bit-identical at -j1 vs -j4" `Slow
            sim_pool_determinism;
        ] );
      Prop.suite "properties"
        [ prop_dedup_exact_once; prop_degree_bounded; prop_self_never_in_mesh ];
    ]
