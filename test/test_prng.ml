(* Tests for basalt.prng: SplitMix64, Xoshiro256++, Rng. *)

open Basalt_prng

let check_i64 = Alcotest.(check int64)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- SplitMix64 --- *)

(* Published test vectors (JDK SplittableRandom / reference C, seed 0). *)
let splitmix_vectors () =
  let sm = Splitmix64.create 0L in
  check_i64 "first" 0xE220A8397B1DCDAFL (Splitmix64.next sm);
  check_i64 "second" 0x6E789E6AA1B965F4L (Splitmix64.next sm);
  check_i64 "third" 0x06C45D188009454FL (Splitmix64.next sm)

let splitmix_determinism () =
  let a = Splitmix64.create 12345L and b = Splitmix64.create 12345L in
  for _ = 1 to 100 do
    check_i64 "same stream" (Splitmix64.next a) (Splitmix64.next b)
  done

let splitmix_mix_stateless () =
  check_i64 "mix deterministic" (Splitmix64.mix 42L) (Splitmix64.mix 42L);
  Alcotest.(check bool)
    "mix changes value" true
    (Splitmix64.mix 42L <> 42L)

(* --- Xoshiro256++ --- *)

let xoshiro_determinism () =
  let a = Xoshiro256.create 99L and b = Xoshiro256.create 99L in
  for _ = 1 to 100 do
    check_i64 "same stream" (Xoshiro256.next a) (Xoshiro256.next b)
  done

(* The published xoshiro256++ outputs from state (1, 2, 3, 4), printed
   unsigned; the first is rotl(1 + 4, 23) + 1. *)
let xoshiro_reference_vectors () =
  let t = Xoshiro256.of_state 1L 2L 3L 4L in
  List.iter
    (fun expected ->
      Alcotest.(check string)
        "output" expected
        (Printf.sprintf "%Lu" (Xoshiro256.next t)))
    [
      "41943041";
      "58720359";
      "3588806011781223";
      "3591011842654386";
      "9228616714210784205";
      "9973669472204895162";
      "14011001112246962877";
      "12406186145184390807";
      "15849039046786891736";
      "10450023813501588000";
    ]

(* [next_int] and [next_top53] are the low 63 and the top 53 bits of the
   output [next] would have returned. *)
let xoshiro_int_views () =
  let a = Xoshiro256.of_state 1L 2L 3L 4L in
  let b = Xoshiro256.of_state 1L 2L 3L 4L in
  for _ = 1 to 50 do
    let x = Xoshiro256.next a in
    check_int "next_int" (Int64.to_int x) (Xoshiro256.next_int b);
    let x = Xoshiro256.next a in
    check_int "next_top53"
      (Int64.to_int (Int64.shift_right_logical x 11))
      (Xoshiro256.next_top53 b)
  done

let xoshiro_seed_sensitivity () =
  let a = Xoshiro256.create 1L and b = Xoshiro256.create 2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if Xoshiro256.next a <> Xoshiro256.next b then differs := true
  done;
  check_bool "different seeds, different streams" true !differs

let xoshiro_zero_state_rejected () =
  Alcotest.check_raises "all-zero state"
    (Invalid_argument "Xoshiro256.of_state: all-zero state") (fun () ->
      ignore (Xoshiro256.of_state 0L 0L 0L 0L))

(* --- Rng --- *)

let rng () = Rng.create ~seed:424242

(* The first draws at one seed, pinned: the simulator's pinned outcomes
   rest on this exact stream. *)
let rng_pinned_draws () =
  let t = rng () in
  check_int "bits 1" 1323032120472704333 (Rng.bits t);
  check_int "bits 2" 2964621045533468875 (Rng.bits t);
  check_int "bits 3" 1197311793873484523 (Rng.bits t);
  Alcotest.(check (float 0.0)) "float 1" 0x1.1ab94a8a88195p-1 (Rng.float t 2.5);
  Alcotest.(check (float 0.0)) "float 2" 0x1.90c0dd2bb0e36p-2 (Rng.float t 1.0);
  Alcotest.(check (list bool))
    "bools" [ false; true; false; true ]
    (List.init 4 (fun _ -> Rng.bits t land 1 = 1));
  check_int "int 7" 5 (Rng.int t 7);
  check_int "int 1000" 894 (Rng.int t 1000)

let rng_int_bounds () =
  let t = rng () in
  for bound = 1 to 50 do
    for _ = 1 to 100 do
      let x = Rng.int t bound in
      check_bool "0 <= x" true (x >= 0);
      check_bool "x < bound" true (x < bound)
    done
  done

(* A bound that is not a power of two draws by rejection.  10^4 draws
   at bound 3,000 allocate nothing (the simulator draws per message),
   and they are the stream the pinned outcomes rest on: the first eight
   values, their sum and a polynomial hash of all of them are pinned. *)
let rng_int_rejection_allocates_nothing () =
  let t = rng () in
  let draws = Array.make 10_000 0 in
  let before = Gc.minor_words () in
  let baseline = Gc.minor_words () -. before in
  let start = Gc.minor_words () in
  for i = 0 to Array.length draws - 1 do
    draws.(i) <- Rng.int t 3000
  done;
  let allocated = Gc.minor_words () -. start -. baseline in
  Alcotest.(check (float 0.0)) "minor words for 10^4 draws" 0.0 allocated;
  Alcotest.(check (list int))
    "first draws"
    [ 2333; 2875; 1523; 290; 2552; 2116; 1285; 1922 ]
    (Array.to_list (Array.sub draws 0 8));
  check_int "sum" 14_915_745 (Array.fold_left ( + ) 0 draws);
  check_int "hash" 396_756_529
    (Array.fold_left (fun h x -> ((h * 31) + x) land 0x3FFFFFFF) 0 draws)

let rng_int_invalid () =
  let t = rng () in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int t 0))

let rng_int_covers_values () =
  let t = rng () in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    seen.(Rng.int t 10) <- true
  done;
  Array.iteri (fun i s -> check_bool (Printf.sprintf "value %d seen" i) true s) seen

let rng_int_roughly_uniform () =
  let t = rng () in
  let buckets = Array.make 8 0 in
  let draws = 80_000 in
  for _ = 1 to draws do
    let i = Rng.int t 8 in
    buckets.(i) <- buckets.(i) + 1
  done;
  let expected = draws / 8 in
  Array.iteri
    (fun i c ->
      check_bool
        (Printf.sprintf "bucket %d within 5%% (%d)" i c)
        true
        (abs (c - expected) < expected / 20))
    buckets

let rng_int_in_range () =
  (* Dense sampling draws each position's pick from the range of the
     positions left: the first pick spans the whole array, ends
     included. *)
  let t = rng () in
  let values = Array.init 7 (fun i -> i - 3) in
  let lo_seen = ref false and hi_seen = ref false in
  for _ = 1 to 1000 do
    let s = Rng.sample_without_replacement t ~k:7 values in
    let sorted = Array.copy s in
    Array.sort Int.compare sorted;
    Alcotest.(check (array int)) "a permutation" values sorted;
    if s.(0) = -3 then lo_seen := true;
    if s.(0) = 3 then hi_seen := true
  done;
  check_bool "lo endpoint reachable" true !lo_seen;
  check_bool "hi endpoint reachable" true !hi_seen

let rng_float_range () =
  let t = rng () in
  for _ = 1 to 1000 do
    let x = Rng.float t 2.5 in
    check_bool "0 <= x < 2.5" true (x >= 0.0 && x < 2.5)
  done

let rng_float_mean () =
  let t = rng () in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float t 1.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean ~ 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let rng_bool_fair () =
  let t = rng () in
  let trues = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli t ~p:0.5 then incr trues
  done;
  check_bool "roughly fair" true (abs (!trues - (n / 2)) < n / 20)

let rng_bernoulli_extremes () =
  let t = rng () in
  for _ = 1 to 100 do
    check_bool "p=0 never" false (Rng.bernoulli t ~p:0.0);
    check_bool "p=1 always" true (Rng.bernoulli t ~p:1.0)
  done

let rng_pick () =
  let t = rng () in
  check_int "singleton" 7 (Rng.pick t [| 7 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick t [||]))

let rng_shuffle_preserves_multiset () =
  let t = rng () in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle_in_place t a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 100 Fun.id) sorted

let rng_shuffle_moves_things () =
  let t = rng () in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle_in_place t a;
  check_bool "not identity (overwhelmingly likely)" true
    (a <> Array.init 100 Fun.id)

let distinct_ints a =
  let seen = Hashtbl.create (Array.length a) in
  Array.for_all
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    a

let rng_sample_indices_dense () =
  let t = rng () in
  (* k close to n exercises the Fisher-Yates path *)
  let s = Rng.sample_without_replacement t ~k:80 (Array.init 100 Fun.id) in
  check_int "size" 80 (Array.length s);
  check_bool "distinct" true (distinct_ints s);
  Array.iter (fun x -> check_bool "in range" true (x >= 0 && x < 100)) s

let rng_sample_indices_sparse () =
  let t = rng () in
  (* 3k < n exercises the rejection path *)
  let s = Rng.sample_without_replacement t ~k:10 (Array.init 100_000 Fun.id) in
  check_int "size" 10 (Array.length s);
  check_bool "distinct" true (distinct_ints s)

let rng_sample_indices_clamps () =
  let t = rng () in
  let sample ~k ~n = Rng.sample_without_replacement t ~k (Array.init n Fun.id) in
  check_int "k > n clamps" 5 (Array.length (sample ~k:50 ~n:5));
  check_int "k = 0 empty" 0 (Array.length (sample ~k:0 ~n:5));
  check_int "n = 0 empty" 0 (Array.length (sample ~k:3 ~n:0))

let rng_sample_without_replacement () =
  let t = rng () in
  let a = [| "a"; "b"; "c"; "d"; "e" |] in
  let s = Rng.sample_without_replacement t ~k:3 a in
  check_int "size" 3 (Array.length s);
  Array.iter
    (fun x -> check_bool "member" true (Array.exists (String.equal x) a))
    s

let rng_split_decorrelates () =
  let parent = rng () in
  let child = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Rng.int64 parent = Rng.int64 child then incr same
  done;
  check_int "streams disjoint" 0 !same

let rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 50 do
    check_i64 "same seed same stream" (Rng.int64 a) (Rng.int64 b)
  done

(* --- properties --- *)

module Gen = QCheck2.Gen
module Test = QCheck2.Test
module Print = QCheck2.Print

let prop_int_in_bounds =
  Test.make ~name:"Rng.int always within bounds" ~count:1000
    ~print:(Print.pair Print.int Print.int)
    Gen.(pair (int_bound 10_000) (int_range 1 1000))
    (fun (seed, bound) ->
      let t = Rng.create ~seed in
      let x = Rng.int t bound in
      x >= 0 && x < bound)

let prop_sample_indices_distinct =
  Test.make ~name:"sample_indices always distinct" ~count:300
    ~print:(Print.triple Print.int Print.int Print.int)
    Gen.(triple (int_bound 10_000) (int_bound 200) (int_bound 200))
    (fun (seed, k, n) ->
      let t = Rng.create ~seed in
      let s = Rng.sample_without_replacement t ~k (Array.init n Fun.id) in
      distinct_ints s && Array.length s = min k n)

(* The sparse path (3k < n) draws exactly as naive rejection does —
   redraw until the index is new, keep first-drawn order — and leaves
   the stream at the same place, for k up to 400 and n up to 3000. *)
let naive_rejection t ~k ~n =
  let out = Array.make k 0 in
  let filled = ref 0 in
  while !filled < k do
    let c = Rng.int t n in
    if not (Array.exists (Int.equal c) (Array.sub out 0 !filled)) then begin
      out.(!filled) <- c;
      incr filled
    end
  done;
  out

let prop_sample_indices_sparse_naive =
  Test.make ~name:"sparse sample_indices = naive rejection" ~count:300
    ~print:(Print.triple Print.int Print.int Print.int)
    Gen.(
      let* k = int_range 1 400 in
      triple (int_bound 10_000) (pure k) (int_range ((3 * k) + 1) 3000))
    (fun (seed, k, n) ->
      let a = Rng.create ~seed and b = Rng.create ~seed in
      let s = Rng.sample_without_replacement a ~k (Array.init n Fun.id) in
      s = naive_rejection b ~k ~n && Int.equal (Rng.bits a) (Rng.bits b))

let prop_shuffle_permutation =
  Test.make ~name:"shuffle is a permutation" ~count:300
    ~print:(Print.pair Print.int (Print.list Print.int))
    Gen.(
      pair (int_bound 10_000)
        (list_size (int_bound 40) (int_range (-1000) 1000)))
    (fun (seed, l) ->
      let t = Rng.create ~seed in
      let a = Array.of_list l in
      let before = List.sort Int.compare l in
      Rng.shuffle_in_place t a;
      List.sort Int.compare (Array.to_list a) = before)

(* Distribution sanity for [Rng.int]: a chi-squared-style bound on
   bucket counts.  Uses a pinned per-case seed, so the statistic is
   exact and deterministic. *)
let prop_int_buckets_balanced =
  Test.make ~name:"Rng.int buckets roughly balanced" ~count:20
    ~print:(Print.pair Print.int Print.int)
    Gen.(pair (int_bound 10_000) (int_range 2 16))
    (fun (seed, buckets) ->
      let t = Rng.create ~seed:(seed + 7919) in
      let draws = 4000 in
      let counts = Array.make buckets 0 in
      for _ = 1 to draws do
        let x = Rng.int t buckets in
        counts.(x) <- counts.(x) + 1
      done;
      let expected = float_of_int draws /. float_of_int buckets in
      Array.for_all
        (fun c ->
          let d = Float.abs (float_of_int c -. expected) in
          (* 6 sigma for a binomial bucket: far beyond test flakiness,
             still catches a broken generator instantly. *)
          d < 6.0 *. sqrt expected)
        counts)

let () =
  Alcotest.run "prng"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "reference vectors" `Quick splitmix_vectors;
          Alcotest.test_case "determinism" `Quick splitmix_determinism;
          Alcotest.test_case "mix stateless" `Quick splitmix_mix_stateless;
        ] );
      ( "xoshiro256",
        [
          Alcotest.test_case "determinism" `Quick xoshiro_determinism;
          Alcotest.test_case "reference vectors" `Quick
            xoshiro_reference_vectors;
          Alcotest.test_case "int views" `Quick xoshiro_int_views;
          Alcotest.test_case "seed sensitivity" `Quick xoshiro_seed_sensitivity;
          Alcotest.test_case "zero state rejected" `Quick
            xoshiro_zero_state_rejected;
        ] );
      ( "rng",
        [
          Alcotest.test_case "pinned draws" `Quick rng_pinned_draws;
          Alcotest.test_case "int bounds" `Quick rng_int_bounds;
          Alcotest.test_case "int rejection allocates nothing" `Quick
            rng_int_rejection_allocates_nothing;
          Alcotest.test_case "int invalid" `Quick rng_int_invalid;
          Alcotest.test_case "int covers values" `Quick rng_int_covers_values;
          Alcotest.test_case "int uniformity" `Slow rng_int_roughly_uniform;
          Alcotest.test_case "int_in_range" `Quick rng_int_in_range;
          Alcotest.test_case "float range" `Quick rng_float_range;
          Alcotest.test_case "float mean" `Slow rng_float_mean;
          Alcotest.test_case "bool fair" `Slow rng_bool_fair;
          Alcotest.test_case "bernoulli extremes" `Quick rng_bernoulli_extremes;
          Alcotest.test_case "pick" `Quick rng_pick;
          Alcotest.test_case "shuffle multiset" `Quick
            rng_shuffle_preserves_multiset;
          Alcotest.test_case "shuffle moves" `Quick rng_shuffle_moves_things;
          Alcotest.test_case "sample dense" `Quick rng_sample_indices_dense;
          Alcotest.test_case "sample sparse" `Quick rng_sample_indices_sparse;
          Alcotest.test_case "sample clamps" `Quick rng_sample_indices_clamps;
          Alcotest.test_case "sample w/o replacement" `Quick
            rng_sample_without_replacement;
          Alcotest.test_case "split decorrelates" `Quick rng_split_decorrelates;
          Alcotest.test_case "determinism" `Quick rng_determinism;
        ] );
      Prop.suite "properties"
        [
          prop_int_in_bounds;
          prop_sample_indices_distinct;
          prop_sample_indices_sparse_naive;
          prop_shuffle_permutation;
          prop_int_buckets_balanced;
        ];
    ]
