(* Tests for the deterministic domain pool (lib/parallel).

   The pool's contract is behavioural equivalence with List.map — same
   results, same order, same leftmost exception — plus determinism of
   map_rng streams regardless of the domain count.  Everything here
   checks observable equivalence; scheduling itself is unobservable by
   design. *)

module Pool = Basalt_parallel.Pool
module Rng = Basalt_prng.Rng

let check = Alcotest.check
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let int_list = Alcotest.(list int)

let with_pool4 f = Pool.with_pool ~domains:4 f

(* --- map = List.map --- *)

let map_matches_list_map () =
  with_pool4 (fun pool ->
      let xs = List.init 100 Fun.id in
      let f x = (x * x) + 1 in
      check int_list "same results in order" (List.map f xs)
        (Pool.map ~pool f xs);
      check int_list "empty list" [] (Pool.map ~pool f []);
      check int_list "singleton" [ 10 ] (Pool.map ~pool f [ 3 ]))

let map_without_pool_is_sequential () =
  let xs = [ 5; 6; 7 ] in
  check int_list "no pool" (List.map succ xs) (Pool.map succ xs)

let mapi_matches_list_mapi () =
  with_pool4 (fun pool ->
      let xs = [ 10; 20; 30; 40 ] in
      let f i x = (i * 1000) + x in
      check int_list "indices line up" (List.mapi f xs)
        (Pool.map ~pool (fun (i, x) -> f i x) (List.mapi (fun i x -> (i, x)) xs)))

let map_on_one_domain_pool () =
  Pool.with_pool ~domains:1 (fun pool ->
      check int_list "still List.map" [ 2; 3 ]
        (Pool.map ~pool succ [ 1; 2 ]))

let map_reuses_pool () =
  with_pool4 (fun pool ->
      for i = 1 to 5 do
        let xs = List.init (10 * i) Fun.id in
        check int_list
          (Printf.sprintf "batch %d" i)
          (List.map succ xs)
          (Pool.map ~pool succ xs)
      done)

(* --- exception propagation --- *)

exception Boom of int

let map_propagates_exception () =
  with_pool4 (fun pool ->
      match
        Pool.map ~pool (fun x -> if x = 7 then raise (Boom x) else x)
          (List.init 20 Fun.id)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 7 -> ())

let map_raises_leftmost_failure () =
  with_pool4 (fun pool ->
      (* Several tasks fail; List.map would have hit index 3 first. *)
      match
        Pool.map ~pool
          (fun x -> if x >= 3 then raise (Boom x) else x)
          (List.init 20 Fun.id)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> check_int "leftmost" 3 i)

let pool_survives_failed_map () =
  with_pool4 (fun pool ->
      (match Pool.map ~pool (fun _ -> raise (Boom 0)) [ 1; 2; 3 ] with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom _ -> ());
      check int_list "next map is clean" [ 2; 3; 4 ]
        (Pool.map ~pool succ [ 1; 2; 3 ]))

(* --- nested maps fall back to sequential --- *)

let nested_map_does_not_deadlock () =
  with_pool4 (fun pool ->
      let result =
        Pool.map ~pool
          (fun x ->
            (* A nested map on the same pool, from inside a task. *)
            List.fold_left ( + ) 0 (Pool.map ~pool (fun y -> x * y) [ 1; 2; 3 ]))
          [ 1; 2; 3; 4 ]
      in
      check int_list "nested results" [ 6; 12; 18; 24 ] result)

(* --- shutdown --- *)

let shutdown_is_idempotent () =
  let pool = Pool.create ~domains:3 () in
  check int_list "usable before shutdown" [ 1 ] (Pool.map ~pool Fun.id [ 1 ]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* Every map on a shut-down pool raises, including the sequential
     fast paths (empty/singleton lists). *)
  (match Pool.map ~pool Fun.id [ 1 ] with
  | _ -> Alcotest.fail "map after shutdown should raise"
  | exception Invalid_argument _ -> ());
  match Pool.map ~pool Fun.id [ 1; 2 ] with
  | _ -> Alcotest.fail "two-element map after shutdown should raise"
  | exception Invalid_argument _ -> ()

let create_rejects_bad_domains () =
  match Pool.create ~domains:0 () with
  | _ -> Alcotest.fail "domains=0 should be rejected"
  | exception Invalid_argument _ -> ()

let with_pool_shuts_down_on_raise () =
  let leaked = ref None in
  (match
     Pool.with_pool ~domains:2 (fun pool ->
         leaked := Some pool;
         raise (Boom 1))
   with
  | () -> Alcotest.fail "expected Boom"
  | exception Boom 1 -> ());
  match !leaked with
  | None -> Alcotest.fail "pool not observed"
  | Some pool -> (
      match Pool.map ~pool Fun.id [ 1; 2 ] with
      | _ -> Alcotest.fail "pool should be shut down"
      | exception Invalid_argument _ -> ())

(* --- map_rng determinism ---

   Tasks that draw randomness get one stream each, split sequentially
   before the fan-out, as the scenario matrix does with its seeds: the
   stream task [i] draws from depends on [rng] and [i] only. *)
let map_rng ?pool ~rng f xs =
  Pool.map ?pool (fun (r, x) -> f r x) (List.map (fun x -> (Rng.split rng, x)) xs)

let map_rng_deterministic_across_domains () =
  let draw rng x = (x, Rng.int rng 1_000_000, Rng.float rng 1.0) in
  let xs = List.init 32 Fun.id in
  let sequential = map_rng ~rng:(Rng.create ~seed:42) draw xs in
  let parallel =
    with_pool4 (fun pool ->
        map_rng ~pool ~rng:(Rng.create ~seed:42) draw xs)
  in
  List.iter2
    (fun (x, i, f) (x', i', f') ->
      check_int "element" x x';
      check_int "int draw" i i';
      Alcotest.(check int64)
        "float draw bits" (Int64.bits_of_float f) (Int64.bits_of_float f'))
    sequential parallel

let map_rng_streams_are_independent () =
  let draw rng _ = Rng.int rng 1_000_000 in
  let xs = List.init 16 Fun.id in
  let draws =
    with_pool4 (fun pool ->
        map_rng ~pool ~rng:(Rng.create ~seed:7) draw xs)
  in
  let distinct = List.sort_uniq Int.compare draws in
  check_bool "streams differ (no shared generator)" true
    (List.length distinct > 1)

(* --- recommended_domains --- *)

let recommended_domains_positive () =
  check_bool "at least one" true (Pool.recommended_domains () >= 1)

(* --- properties: List.map equivalence over randomized batches ---

   Each case spawns its own short-lived pools, so the budgets stay small
   (a pool spawn is ~1 ms; these remain the cheap end of the suite). *)

module Gen = QCheck2.Gen
module Test = QCheck2.Test
module Print = QCheck2.Print

(* Batch sizes hug the interesting edges: empty, below the domain
   count, and comfortably above it. *)
let batch_gen = Gen.list_size (Gen.int_bound 12) (Gen.int_range (-1000) 1000)

let prop_map_domain_count_invariant =
  Test.make ~name:"map agrees at j=1 and j=4 (incl. tiny batches)"
    ~count:30 ~print:(Print.list Print.int) batch_gen
    (fun xs ->
      let f x = (x * 31) + 7 in
      let expected = List.map f xs in
      let j1 = Pool.with_pool ~domains:1 (fun pool -> Pool.map ~pool f xs) in
      let j4 = Pool.with_pool ~domains:4 (fun pool -> Pool.map ~pool f xs) in
      expected = j1 && expected = j4)

let prop_map_rng_domain_count_invariant =
  Test.make ~name:"map_rng is bit-identical at j=1 and j=4" ~count:30
    ~print:(Print.pair Print.int (Print.list Print.int))
    (Gen.pair (Gen.int_bound 10_000) batch_gen)
    (fun (seed, xs) ->
      let draw rng x = (x, Rng.int rng 1_000_000) in
      let sequential = map_rng ~rng:(Rng.create ~seed) draw xs in
      let parallel =
        Pool.with_pool ~domains:4 (fun pool ->
            map_rng ~pool ~rng:(Rng.create ~seed) draw xs)
      in
      sequential = parallel)

(* Nested map_rng: an outer parallel fan-out whose tasks themselves call
   map_rng (sequential fallback) must equal the fully sequential run. *)
let prop_nested_map_rng_deterministic =
  Test.make ~name:"nested map_rng matches sequential" ~count:20
    ~print:(Print.pair Print.int (Print.list Print.int))
    (Gen.pair (Gen.int_bound 10_000)
       (Gen.list_size (Gen.int_bound 6) (Gen.int_bound 50)))
    (fun (seed, xs) ->
      let inner rng x = List.init 3 (fun i -> Rng.int rng (x + i + 1)) in
      let outer pool rng x =
        map_rng ?pool ~rng (fun rng y -> inner rng y) [ x; x + 1 ]
      in
      let sequential =
        map_rng ~rng:(Rng.create ~seed) (outer None) xs
      in
      let parallel =
        Pool.with_pool ~domains:4 (fun pool ->
            map_rng ~pool ~rng:(Rng.create ~seed)
              (outer (Some pool)) xs)
      in
      sequential = parallel)

(* The leftmost failing element's exception wins, regardless of where
   later failures sit in the batch. *)
let prop_leftmost_exception =
  Test.make ~name:"leftmost exception wins" ~count:30
    ~print:(Print.list Print.bool)
    (* One position, drawn beside the flags, is forced to fail, so every
       case (and every shrink) has a failing element. *)
    (Gen.map2
       (fun flags pos ->
         let forced = pos mod List.length flags in
         List.mapi (fun i fail -> fail || i = forced) flags)
       (Gen.list_size (Gen.int_range 1 12) Gen.bool)
       (Gen.int_bound 11))
    (fun flags ->
      let tagged = List.mapi (fun i fail -> (i, fail)) flags in
      let expected_idx =
        fst (List.find (fun (_, fail) -> fail) tagged)
      in
      match
        Pool.with_pool ~domains:4 (fun pool ->
            Pool.map ~pool
              (fun (i, fail) -> if fail then raise (Boom i) else i)
              tagged)
      with
      | _ -> false
      | exception Boom i -> i = expected_idx)

let () =
  Alcotest.run "parallel"
    [
      ( "map",
        [
          Alcotest.test_case "matches List.map" `Quick map_matches_list_map;
          Alcotest.test_case "no pool is sequential" `Quick
            map_without_pool_is_sequential;
          Alcotest.test_case "mapi matches List.mapi" `Quick
            mapi_matches_list_mapi;
          Alcotest.test_case "one-domain pool" `Quick map_on_one_domain_pool;
          Alcotest.test_case "pool reuse" `Quick map_reuses_pool;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "propagates" `Quick map_propagates_exception;
          Alcotest.test_case "leftmost failure wins" `Quick
            map_raises_leftmost_failure;
          Alcotest.test_case "pool survives failure" `Quick
            pool_survives_failed_map;
        ] );
      ( "nesting",
        [
          Alcotest.test_case "nested map falls back" `Quick
            nested_map_does_not_deadlock;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "shutdown idempotent" `Quick
            shutdown_is_idempotent;
          Alcotest.test_case "create validates domains" `Quick
            create_rejects_bad_domains;
          Alcotest.test_case "with_pool cleans up on raise" `Quick
            with_pool_shuts_down_on_raise;
          Alcotest.test_case "recommended_domains" `Quick
            recommended_domains_positive;
        ] );
      ( "map_rng",
        [
          Alcotest.test_case "deterministic across domains" `Quick
            map_rng_deterministic_across_domains;
          Alcotest.test_case "independent streams" `Quick
            map_rng_streams_are_independent;
        ] );
      Prop.suite "properties"
        [
          prop_map_domain_count_invariant;
          prop_map_rng_domain_count_invariant;
          prop_nested_map_rng_deterministic;
          prop_leftmost_exception;
        ];
    ]
