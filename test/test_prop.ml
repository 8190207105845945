(* Tests for the property adapter (test/prop): the domain generators
   are deterministic in the seed and stay in their documented ranges,
   failures replay bit-identically from their seed, and the environment
   knobs (BASALT_CHECK_SEED / _COUNT / _DIR) and -q behave.  Generation
   and shrinking themselves are QCheck2's. *)

module Gen = QCheck2.Gen
module Test = QCheck2.Test
module Print = QCheck2.Print

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_expect_fail ?seed t =
  match Prop.run ?seed ~suite:"self" t with
  | Error f -> f
  | Ok _ -> Alcotest.fail "property passed unexpectedly"

(* Temporarily override an environment variable ("" parses as unset for
   the integer knobs and disables the dump directory). *)
let with_env var value f =
  let old = Option.value (Sys.getenv_opt var) ~default:"" in
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var old) f

let contains ~needle s =
  let nl = String.length needle in
  let rec go i =
    i + nl <= String.length s && (String.sub s i nl = needle || go (i + 1))
  in
  go 0

let failing_prop =
  Test.make ~name:"replays" ~print:(Print.list Print.int)
    (Gen.list_size (Gen.int_bound 20) (Gen.int_bound 1000))
    (fun l -> List.fold_left ( + ) 0 l < 800)

let failure_replays () =
  let f1 = run_expect_fail ~seed:123 failing_prop in
  let f2 = run_expect_fail ~seed:123 failing_prop in
  check_bool "identical failure record" true (f1 = f2);
  check_int "replay seed is the base seed" 123 f1.Prop.seed;
  check_bool "shrinking did some work" true (f1.Prop.shrink_steps > 0);
  let f3 = run_expect_fail ~seed:321 failing_prop in
  check_bool "another seed, another run" true (f3.Prop.seed <> f1.Prop.seed)

let seed_env_respected () =
  with_env "BASALT_CHECK_SEED" "777" (fun () ->
      check_int "default_seed reads the env" 777 (Prop.default_seed ());
      let f = run_expect_fail failing_prop in
      check_int "run uses it" 777 f.Prop.seed);
  with_env "BASALT_CHECK_SEED" "" (fun () ->
      check_int "unset falls back" Prop.default_seed_value
        (Prop.default_seed ()))

let count_env_raises_budget () =
  with_env "BASALT_CHECK_COUNT" "1000" (fun () ->
      check_int "raised to the env value" 1000 (Prop.budget ~quick:false 100);
      check_int "pinned budgets above the env still win" 5000
        (Prop.budget ~quick:false 5000));
  with_env "BASALT_CHECK_COUNT" "" (fun () ->
      check_int "unset leaves the pin" 37 (Prop.budget ~quick:false 37))

let quick_cuts_budget () =
  with_env "BASALT_CHECK_COUNT" "" (fun () ->
      check_int "divided by 10" 100 (Prop.budget ~quick:true 1000);
      check_int "floor of 10" 10 (Prop.budget ~quick:true 50))

let pass_reports_case_count () =
  let t =
    Test.make ~name:"tautology" ~count:37 (Gen.int_bound 5) (fun _ -> true)
  in
  match Prop.run ~suite:"self" t with
  | Ok n -> check_int "ran the effective budget" (Prop.budget 37) n
  | Error f -> Alcotest.fail (Prop.report f)

let failure_dumped_to_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "basalt-check-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      with_env "BASALT_CHECK_DIR" dir (fun () ->
          let f = run_expect_fail ~seed:5 failing_prop in
          let file = Filename.concat dir "self.replays.seed5.txt" in
          check_bool "artifact written" true (Sys.file_exists file);
          Alcotest.(check string)
            "artifact is the report" (Prop.report f ^ "\n")
            (In_channel.with_open_text file In_channel.input_all)))

let report_mentions_replay () =
  let report = Prop.report (run_expect_fail ~seed:5 failing_prop) in
  check_bool "names the property" true (contains ~needle:"replays" report);
  check_bool "gives the seed" true
    (contains ~needle:"BASALT_CHECK_SEED=5" report)

let generator_exception_is_failure () =
  let boom : int Gen.t =
    Gen.bind (Gen.int_bound 3) (fun _ -> failwith "generator bug")
  in
  let t = Test.make ~name:"boom" ~print:Print.int boom (fun _ -> true) in
  let f = run_expect_fail t in
  check_bool "reason carries the exception" true
    (contains ~needle:"generator bug" f.Prop.reason)

(* --- the domain generators --- *)

module Gens = Prop.Gens
module Message = Basalt_proto.Message
module Node_id = Basalt_proto.Node_id

let domain_gen =
  Gen.quad
    (Gens.schedule ~max_nodes:8 ~max_sends:40)
    (Gens.message ~max_ids:20 ()) (Gens.mid ~max_id:6 ()) Gens.obs_event

(* Same seed, same draws: what a run generates is a function of its
   (suite, name, seed) triple alone. *)
let gen_determinism () =
  let draws seed =
    let seen = ref [] in
    let t =
      Test.make ~name:"draws" ~count:50 domain_gen (fun x ->
          seen := x :: !seen;
          true)
    in
    ignore (Prop.run ~seed ~suite:"self" t);
    !seen
  in
  check_bool "same seed, same draws" true (draws 42 = draws 42);
  check_bool "draws depend on the seed" true (draws 42 <> draws 43)

let prop_ranges =
  let ids_within max ids =
    Array.for_all (fun i -> i >= 0 && i <= max) (Array.map Node_id.to_int ids)
  in
  let mids_within max ms =
    Array.for_all
      (fun (m : Message.mid) ->
        ids_within max [| m.origin |] && m.seqno >= 0 && m.seqno <= 0xFFFF_FFFF)
      ms
  in
  let wire_max = (1 lsl 48) - 1 in
  Test.make ~name:"ranges" ~count:200 domain_gen
    (fun ((s : Gens.schedule), msg, mid, (ev : Basalt_obs.Obs.event)) ->
      s.nodes >= 1 && s.nodes <= 8
      && List.length s.registered = s.nodes
      && List.length s.sends <= 40
      && List.for_all
           (fun (t, src, dst) ->
             t >= 0. && t <= 100. && src >= 0 && src < s.nodes && dst >= 0
             && dst < s.nodes)
           s.sends
      && mids_within 6 [| mid |]
      && (match msg with
         | Message.Pull_reply v | Push v ->
             Array.length v <= 20 && ids_within wire_max v
         | Push_id i -> ids_within wire_max [| i |]
         | Gossip { mid; hops; payload } ->
             mids_within wire_max [| mid |] && hops >= 0 && hops <= 0xFFFF
             && Bytes.length payload <= 64
         | Ihave ms | Iwant ms ->
             Array.length ms <= 20 && mids_within wire_max ms
         | Pull_request | Graft | Prune -> true)
      && List.length ev.fields <= 8
      && List.for_all
           (fun (k, _) -> String.starts_with ~prefix:"k" k)
           ev.fields)

let () =
  (* These properties fail on purpose: keep their reports out of a fuzz
     run's artifact directory. *)
  Unix.putenv "BASALT_CHECK_DIR" "";
  Alcotest.run "prop"
    [
      ( "generators",
        [
          Alcotest.test_case "determinism" `Quick gen_determinism;
          Prop.case ~suite:"generators" prop_ranges;
        ] );
      ( "runner",
        [
          Alcotest.test_case "failures replay" `Quick failure_replays;
          Alcotest.test_case "seed env" `Quick seed_env_respected;
          Alcotest.test_case "count env" `Quick count_env_raises_budget;
          Alcotest.test_case "quick budget" `Quick quick_cuts_budget;
          Alcotest.test_case "pass counts cases" `Quick pass_reports_case_count;
          Alcotest.test_case "failure artifacts" `Quick failure_dumped_to_dir;
          Alcotest.test_case "report replay line" `Quick report_mentions_replay;
          Alcotest.test_case "generator exceptions" `Quick
            generator_exception_is_failure;
        ] );
    ]
