(* Tests for basalt.sps: indegree statistics, the classical RPS, SPS. *)

open Basalt_sps
module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message
module View_ops = Basalt_proto.View_ops

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let id = Node_id.of_int
let rng () = Basalt_prng.Rng.create ~seed:77

(* --- Indegree_stats --- *)

(* The statistics are seen through the outlier test they feed: 20
   identifiers recorded once each are the population baseline. *)
let with_baseline ?decay () =
  let s = Indegree_stats.create ?decay () in
  for i = 1 to 20 do
    Indegree_stats.record s (id i)
  done;
  s

let stats_record_count () =
  let s = with_baseline () in
  Indegree_stats.record s (id 999);
  Indegree_stats.tick s;
  check_bool "one record is the baseline" false
    (Indegree_stats.is_outlier s ~z:3.0 (id 999));
  for _ = 1 to 4 do
    Indegree_stats.record s (id 999)
  done;
  Indegree_stats.tick s;
  (* counts 0.81 each, 999 at 4.41: mean 0.98 + 3 std 0.75 < 4.41 *)
  check_bool "five records stand out" true
    (Indegree_stats.is_outlier s ~z:3.0 (id 999))

let stats_decay () =
  let s = with_baseline ~decay:0.5 () in
  for _ = 1 to 50 do
    Indegree_stats.record s (id 999)
  done;
  Indegree_stats.tick s;
  check_bool "outlier after one halving" true
    (Indegree_stats.is_outlier s ~z:3.0 (id 999));
  (* Decay below the pruning threshold removes the baseline's entries
     (0.5^7 < 0.01), leaving too small a population for any verdict. *)
  for _ = 1 to 6 do
    Indegree_stats.tick s
  done;
  check_bool "pruned population judges nothing" false
    (Indegree_stats.is_outlier s ~z:3.0 (id 999))

let stats_moments () =
  (* Ten identifiers recorded 1..10 times: counts 0.9 i after decay,
     mean 4.95, std 2.585; the threshold mean + z std moves with z. *)
  let s = Indegree_stats.create () in
  for i = 1 to 10 do
    for _ = 1 to i do
      Indegree_stats.record s (id i)
    done
  done;
  Indegree_stats.tick s;
  check_bool "9.0 > 4.95 + 1.5 std" true
    (Indegree_stats.is_outlier s ~z:1.5 (id 10));
  check_bool "9.0 < 4.95 + 1.6 std" false
    (Indegree_stats.is_outlier s ~z:1.6 (id 10));
  check_bool "the mean is no outlier at z = 0" false
    (Indegree_stats.is_outlier s ~z:0.0 (id 5))

let stats_invalid () =
  Alcotest.check_raises "decay 0"
    (Invalid_argument "Indegree_stats.create: decay out of (0, 1]") (fun () ->
      ignore (Indegree_stats.create ~decay:0.0 ()))

let stats_outlier_needs_population () =
  let s = Indegree_stats.create () in
  for _ = 1 to 100 do
    Indegree_stats.record s (id 1)
  done;
  Indegree_stats.tick s;
  (* Only one identifier tracked: no population baseline, no outliers. *)
  check_bool "no outlier with tiny population" false
    (Indegree_stats.is_outlier s ~z:1.0 (id 1))

let stats_outlier_detects_heavy_hitter () =
  let s = Indegree_stats.create () in
  for i = 1 to 20 do
    Indegree_stats.record s (id i)
  done;
  for _ = 1 to 50 do
    Indegree_stats.record s (id 999)
  done;
  Indegree_stats.tick s;
  check_bool "heavy hitter flagged" true
    (Indegree_stats.is_outlier s ~z:3.0 (id 999));
  check_bool "normal id not flagged" false
    (Indegree_stats.is_outlier s ~z:3.0 (id 1))

(* --- Classic --- *)

let capture () =
  let sent = ref [] in
  let send ~dst msg = sent := (dst, msg) :: !sent in
  (sent, send)

let classic_config_invalid () =
  Alcotest.check_raises "l=0" (Invalid_argument "Classic.config: l must be positive")
    (fun () -> ignore (Classic.config ~l:0 ()))

let make_classic ?(l = 4) ?filter ?(bootstrap = Array.init 6 (fun i -> id (i + 1)))
    () =
  let sent, send = capture () in
  let t =
    Classic.create
      ~config:(Classic.config ~l ())
      ?filter ~id:(id 0) ~bootstrap ~rng:(rng ()) ~send ()
  in
  (t, sent)

let classic_bootstrap () =
  let t, _ = make_classic () in
  check_int "view capped at l" 4 (Array.length (Classic.view t));
  Array.iter
    (fun p -> check_bool "no self" false (Node_id.equal p (id 0)))
    (Classic.view t)

let classic_round_sends () =
  let t, sent = make_classic () in
  Classic.on_round t;
  let kinds = List.map (fun (_, m) -> Message.kind m) !sent in
  check_bool "push" true (List.mem "push" kinds);
  check_bool "pull" true (List.mem "pull" kinds)

let classic_pull_reply () =
  let t, sent = make_classic () in
  Classic.on_message t ~from:(id 9) Message.Pull_request;
  match !sent with
  | [ (dst, Message.Pull_reply _) ] -> check_int "to requester" 9 (Node_id.to_int dst)
  | _ -> Alcotest.fail "expected pull reply"

let classic_rebuild_from_received () =
  let t, _ = make_classic ~l:2 ~bootstrap:[| id 1 |] () in
  Classic.on_message t ~from:(id 1) (Message.Pull_reply [| id 10; id 11; id 12 |]);
  Classic.on_round t;
  let view = Classic.view t in
  check_int "view refilled to l" 2 (Array.length view);
  Array.iter
    (fun p ->
      check_bool "from pool" true
        (List.mem (Node_id.to_int p) [ 1; 10; 11; 12 ]))
    view

let classic_filter () =
  let reject p = Node_id.to_int p < 100 in
  let t, _ =
    make_classic ~l:4 ~filter:(fun p -> not (reject p))
      ~bootstrap:[| id 1; id 200; id 201 |] ()
  in
  Array.iter
    (fun p -> check_bool "filtered bootstrap" true (Node_id.to_int p >= 100))
    (Classic.view t);
  Classic.on_message t ~from:(id 202) (Message.Pull_reply [| id 2; id 203 |]);
  Classic.on_round t;
  Array.iter
    (fun p -> check_bool "filtered receipts" true (Node_id.to_int p >= 100))
    (Classic.view t)

let classic_evict () =
  let t, _ = make_classic () in
  Classic.evict t (fun _ -> true);
  check_int "all evicted" 0 (Array.length (Classic.view t))

let classic_sample () =
  let t, _ = make_classic () in
  let s = Classic.sample t 3 in
  check_int "three samples" 3 (List.length s);
  List.iter
    (fun p ->
      check_bool "sample from view" true (Array.mem p (Classic.view t)))
    s;
  Classic.evict t (fun _ -> true);
  check_bool "no samples from empty view" true (Classic.sample t 3 = [])

(* --- SPS --- *)

let sps_config_invalid () =
  Alcotest.check_raises "l=0"
    (Invalid_argument "Sps.config: l must be positive") (fun () ->
      ignore (Sps.config ~l:0 ()))

(* SPS blacklists nothing in its first 30 rounds (the warm-up), and a
   blacklisting lasts 50 rounds. *)
let warmup_rounds = 30
let blacklist_ttl = 50

let make_sps () =
  let sent, send = capture () in
  let t =
    Sps.sampler ~config:(Sps.config ~l:8 ()) () ~id:(id 0)
      ~bootstrap:(Array.init 6 (fun i -> id (i + 1)))
      ~rng:(rng ()) ~send
  in
  (t, sent)

let quiet_rounds (t : Basalt_proto.Rps.t) n =
  for _ = 1 to n do
    t.on_round ()
  done

(* A blacklisted sender's messages are dropped: its pull request goes
   unanswered. *)
let blacklisted (t : Basalt_proto.Rps.t) sent p =
  sent := [];
  t.on_message ~from:p Message.Pull_request;
  not (List.exists (fun (dst, _) -> Node_id.equal dst p) !sent)

(* Drive enough traffic that one identifier becomes a statistical
   outlier, for five rounds. *)
let flood_with_heavy_hitter (t : Basalt_proto.Rps.t) =
  for _ = 1 to 5 do
    t.on_round ();
    (* a normal-looking background of ids *)
    t.on_message ~from:(id 1)
      (Message.Pull_reply (Array.init 15 (fun i -> id (i + 2))));
    (* ...and a heavily repeated one *)
    for _ = 1 to 10 do
      t.on_message ~from:(id 999) (Message.Push [| id 999 |])
    done
  done

let sps_blacklists_heavy_hitter () =
  let t, sent = make_sps () in
  quiet_rounds t warmup_rounds;
  flood_with_heavy_hitter t;
  check_bool "flagged" true (blacklisted t sent (id 999));
  check_bool "others still answered" false (blacklisted t sent (id 5));
  check_bool "evicted from view" false
    (Array.mem (id 999) (t.current_view ()))

let sps_warmup_delays_blacklisting () =
  let t, sent = make_sps () in
  (* Rounds 1 to 5, well inside the warm-up. *)
  flood_with_heavy_hitter t;
  check_bool "not flagged during warmup" false (blacklisted t sent (id 999))

let sps_blacklist_expires () =
  let t, sent = make_sps () in
  quiet_rounds t warmup_rounds;
  flood_with_heavy_hitter t;
  check_bool "flagged" true (blacklisted t sent (id 999));
  (* Advance rounds without traffic: the entry made in the last flood
     round lasts exactly the TTL. *)
  quiet_rounds t (blacklist_ttl - 1);
  check_bool "flagged until the ttl" true (blacklisted t sent (id 999));
  quiet_rounds t 1;
  check_bool "expired" false (blacklisted t sent (id 999))

let sps_sampler_interface () =
  let maker = Sps.sampler ~config:(Sps.config ~l:8 ()) () in
  let s =
    maker ~id:(id 0)
      ~bootstrap:(Array.init 4 (fun i -> id (i + 1)))
      ~rng:(rng ())
      ~send:(fun ~dst:_ _ -> ())
  in
  Alcotest.(check string) "protocol" "sps" s.Basalt_proto.Rps.protocol;
  s.Basalt_proto.Rps.on_round ();
  check_bool "emits samples" true (List.length (s.Basalt_proto.Rps.sample_tick ()) <= 1)

let () =
  Alcotest.run "sps"
    [
      ( "indegree_stats",
        [
          Alcotest.test_case "record/count" `Quick stats_record_count;
          Alcotest.test_case "decay+prune" `Quick stats_decay;
          Alcotest.test_case "moments" `Quick stats_moments;
          Alcotest.test_case "invalid" `Quick stats_invalid;
          Alcotest.test_case "outlier needs population" `Quick
            stats_outlier_needs_population;
          Alcotest.test_case "outlier detection" `Quick
            stats_outlier_detects_heavy_hitter;
        ] );
      ( "classic",
        [
          Alcotest.test_case "config invalid" `Quick classic_config_invalid;
          Alcotest.test_case "bootstrap" `Quick classic_bootstrap;
          Alcotest.test_case "round sends" `Quick classic_round_sends;
          Alcotest.test_case "pull reply" `Quick classic_pull_reply;
          Alcotest.test_case "rebuild from received" `Quick
            classic_rebuild_from_received;
          Alcotest.test_case "filter" `Quick classic_filter;
          Alcotest.test_case "evict" `Quick classic_evict;
          Alcotest.test_case "sample" `Quick classic_sample;
        ] );
      ( "sps",
        [
          Alcotest.test_case "config invalid" `Quick sps_config_invalid;
          Alcotest.test_case "blacklists heavy hitter" `Quick
            sps_blacklists_heavy_hitter;
          Alcotest.test_case "warmup delays blacklisting" `Quick
            sps_warmup_delays_blacklisting;
          Alcotest.test_case "blacklist expires" `Quick sps_blacklist_expires;
          Alcotest.test_case "sampler interface" `Quick sps_sampler_interface;
        ] );
    ]
