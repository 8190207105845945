(* Tests for basalt.hashing: SipHash, mixers, rank functions. *)

open Basalt_hashing

let check_i64 = Alcotest.(check int64)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The reference-implementation test key: k = 000102...0f (little
   endian words). *)
let ref_key = Siphash.key_of_ints 0x0706050403020100L 0x0F0E0D0C0B0A0908L

(* Expected SipHash-2-4 outputs for inputs 00, 00 01, 00 01 02, ... taken
   from the reference implementation's vectors_sip64 table (converted from
   output bytes to little-endian u64). *)
let siphash24_vector len =
  match len with
  | 0 -> 0x726FDB47DD0E0E31L
  | 1 -> 0x74F839C593DC67FDL
  | 2 -> 0x0D6C8009D9A94F5AL
  | 3 -> 0x85676696D7FB7E2DL
  | 4 -> 0xCF2794E0277187B7L
  | 5 -> 0x18765564CD99A68DL
  | 6 -> 0xCBC9466E58FEE3CEL
  | 7 -> 0xAB0200F58B01D137L
  | 8 -> 0x93F5F5799A932462L
  | 15 -> 0xA129CA6149BE45E5L
  | _ -> invalid_arg "no vector"

let input_bytes len = Bytes.init len Char.chr

let siphash_reference_vectors () =
  List.iter
    (fun len ->
      check_i64
        (Printf.sprintf "vector len=%d" len)
        (siphash24_vector len)
        (Siphash.hash_bytes ref_key (input_bytes len)))
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 15 ]

let siphash_int64_consistency () =
  (* The rank path's int64 fast path, a midstate resumed with a second
     block, must agree with hash_bytes on the 16-byte LE encoding. *)
  List.iter
    (fun x ->
      let b = Bytes.create 16 in
      Bytes.set_int64_le b 0 x;
      Bytes.set_int64_le b 8 (Int64.lognot x);
      check_i64
        (Printf.sprintf "int64 %Ld" x)
        (Siphash.hash_bytes ref_key b)
        (Siphash.finish_int64_pair (Siphash.prepare_int64 ref_key x)
           (Int64.lognot x)))
    [ 0L; 1L; -1L; 0x0706050403020100L; Int64.max_int; Int64.min_int ]

let siphash_pair_consistency () =
  List.iter
    (fun (a, b) ->
      let buf = Bytes.create 16 in
      Bytes.set_int64_le buf 0 a;
      Bytes.set_int64_le buf 8 b;
      check_i64 "pair = bytes"
        (Siphash.hash_bytes ref_key buf)
        (Siphash.hash_int64_pair ref_key a b))
    [ (0L, 0L); (1L, 2L); (-5L, 77L); (Int64.max_int, Int64.min_int) ]

let siphash_key_sensitivity () =
  let k2 = Siphash.key_of_ints 1L 2L in
  check_bool "different keys differ" true
    (Siphash.hash_int64_pair ref_key 0L 42L <> Siphash.hash_int64_pair k2 0L 42L)

let siphash13_differs () =
  check_bool "1-3 differs from 2-4" true
    (Siphash.hash_int64_pair ~c:1 ~d:3 ref_key 0L 42L
    <> Siphash.hash_int64_pair ref_key 0L 42L)

let siphash_key_of_rng () =
  let rng = Basalt_prng.Rng.create ~seed:3 in
  let k1 = Siphash.key_of_rng rng in
  let k2 = Siphash.key_of_rng rng in
  check_bool "fresh keys differ" true
    (Siphash.hash_int64_pair k1 0L 1L <> Siphash.hash_int64_pair k2 0L 1L)

(* --- SipHash midstate (the rank hot-path cache) --- *)

(* The resumed midstate must be literally the same function as the
   one-shot pair hash: pinned on the reference-vector key first, then
   over a seeded sweep of keys and blocks. *)
let siphash_midstate_reference_key () =
  List.iter
    (fun (a, b) ->
      check_i64
        (Printf.sprintf "midstate resume (%Ld, %Ld)" a b)
        (Siphash.hash_int64_pair ref_key a b)
        (Siphash.finish_int64_pair (Siphash.prepare_int64 ref_key a) b))
    [
      (0L, 0L);
      (1L, 2L);
      (-1L, 1L);
      (-5L, 77L);
      (0x0706050403020100L, 0x0F0E0D0C0B0A0908L);
      (Int64.max_int, Int64.min_int);
      (Int64.min_int, Int64.max_int);
    ]

let siphash_midstate_seeded_sweep () =
  let rng = Basalt_prng.Rng.create ~seed:41 in
  for _ = 1 to 200 do
    let key = Siphash.key_of_rng rng in
    let a = Basalt_prng.Rng.int64 rng and b = Basalt_prng.Rng.int64 rng in
    let ms = Siphash.prepare_int64 key a in
    check_i64 "sweep: resumed = one-shot"
      (Siphash.hash_int64_pair key a b)
      (Siphash.finish_int64_pair ms b);
    (* One midstate serves many second blocks. *)
    let b2 = Basalt_prng.Rng.int64 rng in
    check_i64 "sweep: midstate reusable"
      (Siphash.hash_int64_pair key a b2)
      (Siphash.finish_int64_pair ms b2)
  done

let siphash_midstate_nondefault_instance () =
  (* Non-2-4 instances take the generic resumption path; it must agree
     with the one-shot hash too. *)
  let ms13 = Siphash.prepare_int64 ~c:1 ref_key 42L in
  check_i64 "1-3 resumed = one-shot"
    (Siphash.hash_int64_pair ~c:1 ~d:3 ref_key 42L 7L)
    (Siphash.finish_int64_pair ~d:3 ms13 7L);
  let ms24 = Siphash.prepare_int64 ref_key 42L in
  check_bool "instances differ" true
    (Siphash.finish_int64_pair ~d:3 ms13 7L
    <> Siphash.finish_int64_pair ms24 7L)

(* --- Mixers --- *)

(* Stafford's Mix13, the SplitMix64 finalizer that seeds every PRNG
   stream through [Splitmix64.mix]. *)
let mix13 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let mix64_matches_splitmix () =
  List.iter
    (fun x ->
      check_i64 "mix64 = splitmix finalizer" (mix13 x)
        (Basalt_prng.Splitmix64.mix x))
    [ 0L; 1L; -1L; 123456789L ]

let mix63_non_negative () =
  List.iter
    (fun x -> check_bool "non-negative" true (Mix.mix63 x >= 0))
    [ 0; 1; -1; max_int; min_int; 42 ]

let mix63_no_easy_collisions () =
  let seen = Hashtbl.create 10_000 in
  for i = 0 to 9_999 do
    let h = Mix.mix63 i in
    check_bool "no collision among consecutive" false (Hashtbl.mem seen h);
    Hashtbl.add seen h ()
  done

let combine63_depends_on_both () =
  check_bool "seed matters" true (Mix.combine63 1 42 <> Mix.combine63 2 42);
  check_bool "value matters" true (Mix.combine63 1 42 <> Mix.combine63 1 43)

(* --- Rank --- *)

let rank_deterministic () =
  let rng = Basalt_prng.Rng.create ~seed:11 in
  let seed = Rank.fresh rng in
  check_int "same input same rank"
    (Rank.rank Rank.Cheap seed 7)
    (Rank.rank Rank.Cheap seed 7)

let rank_non_negative () =
  let rng = Basalt_prng.Rng.create ~seed:12 in
  List.iter
    (fun backend ->
      let seed = Rank.fresh rng in
      for id = 0 to 100 do
        check_bool "rank >= 0" true (Rank.rank backend seed id >= 0)
      done)
    [ Rank.Cheap; Rank.Siphash ref_key ]

(* [offer_slots] with a one-candidate batch — the candidate prepared as
   its id and {!Rank.digest} — into one empty slot writes back the
   candidate's plain rank. *)
let kernel_rank backend seed id =
  let best_ranks = [| max_int |] and holders = [| -1 |] in
  ignore
    (Rank.offer_slots backend ~seeds:[| seed |] ~stamps:[| 1 |] ~raw:[| id |]
       ~dig:[| Rank.digest id |] ~since:[| 0 |] ~max_since:0 ~len:1 ~best_ranks
       ~holders);
  best_ranks.(0)

let rank_prepared_agrees () =
  let rng = Basalt_prng.Rng.create ~seed:13 in
  List.iter
    (fun backend ->
      let seed = Rank.fresh rng in
      for id = 0 to 50 do
        check_int "prepared = direct"
          (Rank.rank backend seed id)
          (kernel_rank backend seed id)
      done)
    [ Rank.Cheap; Rank.Siphash ref_key ]

(* A seed is the one [Rng.bits] draw [fresh] makes, whatever the
   backend, so swapping backends never shifts a PRNG stream. *)
let rank_fresh_one_draw () =
  let a = Basalt_prng.Rng.create ~seed:99 in
  let b = Basalt_prng.Rng.create ~seed:99 in
  let seed = Rank.fresh a in
  check_int "one bits draw" (Basalt_prng.Rng.bits b) seed;
  check_int "streams stay in step" (Basalt_prng.Rng.bits b)
    (Basalt_prng.Rng.bits a)

let rank_seed_changes_order () =
  (* Two fresh seeds should order a candidate set differently (with
     overwhelming probability over 64-bit seeds). *)
  let rng = Basalt_prng.Rng.create ~seed:14 in
  let s1 = Rank.fresh rng and s2 = Rank.fresh rng in
  let argmin s =
    let best = ref 0 in
    for id = 1 to 999 do
      if Rank.rank Rank.Cheap s id < Rank.rank Rank.Cheap s !best then
        best := id
    done;
    !best
  in
  check_bool "different winners (overwhelmingly likely)" true
    (argmin s1 <> argmin s2)

(* Min-wise independence: with fresh random seeds, each of n candidates
   wins the argmin with probability ~1/n.  This is the property Basalt's
   uniform sampling rests on; test both backends. *)
let rank_minwise_uniformity backend () =
  let rng = Basalt_prng.Rng.create ~seed:15 in
  let n = 20 in
  let trials = 20_000 in
  let wins = Array.make n 0 in
  for _ = 1 to trials do
    let seed = Rank.fresh rng in
    let best = ref 0 in
    for id = 1 to n - 1 do
      if Rank.rank backend seed id < Rank.rank backend seed !best then
        best := id
    done;
    wins.(!best) <- wins.(!best) + 1
  done;
  let expected = trials / n in
  Array.iteri
    (fun i w ->
      check_bool
        (Printf.sprintf "candidate %d wins ~uniformly (%d)" i w)
        true
        (abs (w - expected) < expected / 4))
    wins

(* --- Prefix-diverse ranking (the §6 crafted rank function) --- *)

let prefix_backend = Rank.Prefix_diverse { prefix_of = (fun id -> id / 100) }

let prefix_rank s id = Rank.rank prefix_backend s id

let prefix_rank_deterministic () =
  check_int "deterministic" (prefix_rank 5 42) (prefix_rank 5 42);
  check_bool "non-negative" true (prefix_rank 5 42 >= 0)

let prefix_rank_prefix_dominates () =
  (* All identifiers of the best-ranked prefix must rank below every
     identifier of any other prefix, for any seed. *)
  let rng = Basalt_prng.Rng.create ~seed:77 in
  for _ = 1 to 50 do
    let s = Rank.fresh rng in
    (* prefixes 0 and 1 hold ids 0..99 and 100..199 *)
    let best_prefix =
      let r0 = prefix_rank s 0 and r100 = prefix_rank s 100 in
      if r0 < r100 then 0 else 1
    in
    let lo = best_prefix * 100 and hi = (1 - best_prefix) * 100 in
    for i = 0 to 99 do
      check_bool "prefix order dominates id order" true
        (prefix_rank s (lo + i) < prefix_rank s (hi + (99 - i)))
    done
  done

let prefix_rank_uniform_within_prefix () =
  (* Within one prefix the winner is uniform across its members. *)
  let rng = Basalt_prng.Rng.create ~seed:78 in
  let trials = 8000 in
  let members = 10 in
  let wins = Array.make members 0 in
  for _ = 1 to trials do
    let s = Rank.fresh rng in
    let best = ref 0 in
    for i = 1 to members - 1 do
      if prefix_rank s i < prefix_rank s !best then best := i
    done;
    wins.(!best) <- wins.(!best) + 1
  done;
  let expected = trials / members in
  Array.iteri
    (fun i w ->
      check_bool
        (Printf.sprintf "member %d wins uniformly (%d)" i w)
        true
        (abs (w - expected) < expected / 3))
    wins

let prefix_rank_prepared_agrees () =
  let rng = Basalt_prng.Rng.create ~seed:79 in
  let s = Rank.fresh rng in
  for id = 0 to 300 do
    check_int "prepared = direct" (prefix_rank s id)
      (kernel_rank prefix_backend s id)
  done

module Gen = QCheck2.Gen
module Test = QCheck2.Test
module Print = QCheck2.Print

(* Every evaluation path — plain, digested, the slot kernel (and for
   SipHash the midstate of the key and seed) — must produce the
   same rank, for every backend. *)
let all_backends =
  [
    ("cheap", Rank.Cheap);
    ("siphash", Rank.Siphash ref_key);
    ("prefix-diverse", Rank.Prefix_diverse { prefix_of = (fun id -> id / 64) });
  ]

(* Non-negative ints: small values, full-width ones (a seed is a
   62-bit [Rng.bits] draw, and below 2^30 the mixer's first xorshift
   is the identity) and both ends. *)
let nonneg =
  Gen.(
    oneof
      [
        int_bound 1_000_000;
        map (fun x -> x land max_int) int;
        oneofl [ 0; max_int; max_int - 1; 1 lsl 30; (1 lsl 30) - 1 ];
      ])

let prop_rank_paths_equal =
  Test.make ~name:"rank = rank_digested = offer_slots"
    ~count:1000
    ~print:(Print.pair Print.int Print.int)
    (Gen.pair nonneg nonneg)
    (fun (sv, id) ->
      List.for_all
        (fun (_, backend) ->
          let r = Rank.rank backend sv id in
          (* the kernel ranks through the candidate's digest *)
          r = kernel_rank backend sv id)
        all_backends)

(* Each cheap backend's rank is its documented formula over [Mix]:
   [Rank] evaluates [Mix.mix63 (seed lxor Mix.mix63 id)] from a premixed
   seed and a premixed digest, and this pins the split to the unsplit
   formula, over non-negative seeds and ids up to [max_int]. *)
let prop_rank_is_mix_formula =
  let prefix_of id = id / 100 in
  Test.make ~name:"cheap ranks = Mix formulas" ~count:2000
    ~print:(Print.pair Print.int Print.int) (Gen.pair nonneg nonneg)
    (fun (seed, id) ->
      Rank.rank Rank.Cheap seed id = Mix.combine63 seed id
      && Rank.rank (Rank.Prefix_diverse { prefix_of }) seed id
         = ((Mix.combine63 seed (prefix_of id) land 0x3FFFFFFF) lsl 32)
           lor (Mix.combine63 seed id land 0xFFFFFFFF))

(* A batch whose every candidate is fresh to the slot gives the same
   holder, best rank and count on the unchecked path ([max_since] below
   [stamp]) as on the checked one ([max_since] at or above [stamp], every
   [since] below it), for every backend, batch lengths 0–9 (the four-way
   loop's tails included), and empty or filled slots — the empty ones
   with any best rank, as the kernel's contract allows. *)
let prop_unchecked_path_equal =
  let stamp = 5 in
  Test.make ~name:"offer_slots unchecked = checked" ~count:1000
    ~print:Print.(tup4 int (list int) (list int) (pair int int))
    Gen.(
      let* len = int_range 0 9 in
      tup4 (int_bound 1_000_000)
        (list_size (pure len) (int_bound 1_000_000))
        (list_size (pure len) (int_range (-1) (stamp - 1)))
        (pair
           (oneof [ pure (-1); int_bound 1_000_000 ])
           (oneof [ pure max_int; map (fun x -> x land max_int) int ])))
    (fun (seed, ids, sinces, (holder, best)) ->
      let raw = Array.of_list ids and since = Array.of_list sinces in
      let dig = Array.map Rank.digest raw and len = Array.length raw in
      let run backend ~max_since =
        let best_ranks = [| best |] and holders = [| holder |] in
        let evals =
          Rank.offer_slots backend ~seeds:[| seed |] ~stamps:[| stamp |] ~raw
            ~dig ~since ~max_since ~len ~best_ranks ~holders
        in
        (holders.(0), best_ranks.(0), evals)
      in
      let top = Array.fold_left Int.max (-1) since in
      List.for_all
        (fun (_, backend) ->
          run backend ~max_since:top = run backend ~max_since:(stamp + 1)
          && run backend ~max_since:top = run backend ~max_since:stamp)
        all_backends)

(* The two bodies of the [Cheap] kernel in rank_stubs.c, reached by
   name: [Rank.offer_slots] runs whichever the CPU supports, and these
   check each one, the AVX-512 body only on a CPU that has it. *)
external kernel_scalar :
  int array ->
  int array ->
  int array ->
  int array ->
  int array ->
  int array ->
  int array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged])
  = "basalt_rank_cheap_scalar_byte" "basalt_rank_cheap_scalar"
[@@noalloc]

external kernel_avx512 :
  int array ->
  int array ->
  int array ->
  int array ->
  int array ->
  int array ->
  int array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged])
  = "basalt_rank_cheap_avx512_byte" "basalt_rank_cheap_avx512"
[@@noalloc]

external avx512_chosen : unit -> bool = "basalt_rank_cheap_avx512_chosen"
[@@noalloc]

(* One kernel call: v slots, [len] candidates whose ranks come from
   [keys] (so two ids may tie on one digest), and the arrays padded past
   [len] as Basalt's grown scratch is. *)
type kernel_case = {
  seeds : int array;
  stamps : int array;
  best : int array;
  held : int array;
  raw : int array;
  keys : int array;
  since : int array;
  max_since : int;
  len : int;
}

let print_kernel_case c =
  let ints a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf
    "v=%d len=%d max_since=%d\nseeds=[%s]\nstamps=[%s]\nbest=[%s]\n\
     holders=[%s]\nraw=[%s]\nkeys=[%s]\nsince=[%s]"
    (Array.length c.seeds) c.len c.max_since (ints c.seeds) (ints c.stamps)
    (ints c.best) (ints c.held) (ints c.raw) (ints c.keys) (ints c.since)

(* v of 1–20 covers every lane count of the AVX-512 body's tail, 40 and
   160 whole and partial sixteen-slot blocks; stamps sit all above
   [max_since] (the unchecked path), all but one above it, or around it,
   so [max_since] is a slot's stamp - 1, its stamp and its stamp + 1;
   [since] spans -1 to [max_since], hitting it at least once when
   [pin]. *)
let gen_kernel_case =
  Gen.(
    let* v = oneof [ int_range 1 20; oneofl [ 40; 160 ] ] in
    let* len = oneof [ int_range 0 9; pure 200 ] in
    let* max_since = int_range 0 4 in
    let* stamp_mode = int_bound 3 in
    let* stamps =
      match stamp_mode with
      | 0 -> array_size (pure v) (int_range (max_since + 1) (max_since + 2))
      | 1 ->
          let* odd = int_bound (v - 1) in
          let* lag = int_range (max_since - 1) max_since in
          map
            (Array.mapi (fun i s -> if i = odd then lag else s))
            (array_size (pure v) (int_range (max_since + 1) (max_since + 2)))
      | 2 -> array_size (pure v) (int_range max_since (max_since + 1))
      | _ -> array_size (pure v) (int_range (max_since - 2) (max_since + 2))
    in
    let* seeds = array_size (pure v) nonneg in
    let* slots =
      array_size (pure v)
        (oneof
           [
             map (fun best -> (best, -1)) (oneofl [ max_int; 0; 12345 ]);
             map (fun (b, h) -> (b land max_int, h)) (pair int (int_bound 1_000));
           ])
    in
    let* pad = int_bound 3 in
    let* raw = array_size (pure (len + pad)) (int_bound 1_000_000) in
    let* ties = bool in
    let* keys =
      if ties then array_size (pure (len + pad)) (int_bound 3)
      else map (Array.mapi (fun j k -> if j < len then raw.(j) else k))
          (array_size (pure (len + pad)) nonneg)
    in
    let* pin = bool in
    let* at = int_bound (Int.max 0 (len - 1)) in
    let* since =
      map
        (Array.mapi (fun j s -> if pin && j = at then max_since else s))
        (array_size (pure (len + pad)) (int_range (-1) max_since))
    in
    pure
      {
        seeds;
        stamps;
        best = Array.map fst slots;
        held = Array.map snd slots;
        raw;
        keys;
        since;
        max_since;
        len;
      })

(* The model: slot by slot, candidate by candidate, [Rank.rank]. *)
let kernel_reference c =
  let best = Array.copy c.best and held = Array.copy c.held in
  let evals = ref 0 in
  Array.iteri
    (fun i seed ->
      for j = 0 to c.len - 1 do
        if c.stamps.(i) > c.since.(j) then begin
          incr evals;
          let r = Rank.rank Rank.Cheap seed c.keys.(j) in
          if r < best.(i) || held.(i) < 0 then begin
            best.(i) <- r;
            held.(i) <- c.raw.(j)
          end
        end
      done)
    c.seeds;
  (best, held, !evals)

let prop_kernel_body ~name body =
  Test.make ~name ~count:500 ~print:print_kernel_case gen_kernel_case (fun c ->
      let best = Array.copy c.best and held = Array.copy c.held in
      (* A batch every slot postdates is passed no [since], as Brahms
         passes none. *)
      let since =
        if Array.for_all (fun s -> s > c.max_since) c.stamps then [||]
        else c.since
      in
      let evals =
        body c.seeds c.stamps best held c.raw (Array.map Rank.digest c.keys)
          since c.max_since c.len
      in
      (best, held, evals) = kernel_reference c)

let prop_kernel_scalar = prop_kernel_body ~name:"scalar body = Rank.rank" kernel_scalar
let prop_kernel_avx512 = prop_kernel_body ~name:"avx512 body = Rank.rank" kernel_avx512

let kernel_avx512_case () =
  if avx512_chosen () then Prop.case ~suite:"kernel" prop_kernel_avx512
  else
    Alcotest.test_case "avx512 body = Rank.rank" `Quick (fun () ->
        print_endline "skipped: this CPU has no AVX-512F and DQ")

(* [offer_slots] checks what the C kernel does not. *)
let offer_slots_rejects_short_arrays () =
  let raises what f =
    match f () with
    | (_ : int) -> Alcotest.failf "%s: no Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  let call ?(seeds = [| 1; 2 |]) ?(stamps = [| 1; 1 |]) ?(raw = [| 7; 8 |])
      ?(dig = [| 7; 8 |]) ?(since = [| 0; 0 |]) ?(max_since = 0) ?(len = 2)
      ?(best_ranks = [| max_int; max_int |]) ?(holders = [| -1; -1 |]) () =
    Rank.offer_slots Rank.Cheap ~seeds ~stamps ~raw ~dig ~since ~max_since
      ~len ~best_ranks ~holders
  in
  check_int "well-formed" 4 (call ());
  raises "short stamps" (call ~stamps:[| 1 |]);
  raises "short best ranks" (call ~best_ranks:[| max_int |]);
  raises "short holders" (call ~holders:[| -1 |]);
  raises "long seeds" (call ~seeds:[| 1; 2; 3 |]);
  raises "short raw" (call ~raw:[| 7 |]);
  raises "short dig" (call ~dig:[| 7 |]);
  raises "negative len" (call ~len:(-1));
  raises "short since, a stamp at max_since" (call ~since:[| 0 |] ~max_since:1);
  check_int "no since, every stamp above max_since" 4
    (call ~since:[||] ~max_since:0 ())

(* The SipHash backend's cached midstate path must equal the uncached
   reference formula: hash_int64_pair over (seed, id), masked to a
   non-negative native int. *)
let prop_sip_rank_matches_reference =
  Test.make ~name:"siphash rank = uncached hash_int64_pair" ~count:500
    ~print:(Print.pair Print.int Print.int)
    Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (sv, id) ->
      Rank.rank (Rank.Siphash ref_key) sv id
      = Int64.to_int
          (Siphash.hash_int64_pair ref_key (Int64.of_int sv) (Int64.of_int id))
        land max_int)

let prop_mix63_nonneg =
  Test.make ~name:"mix63 non-negative" ~count:1000 ~print:Print.int
    (Gen.int_range min_int max_int)
    (fun x -> Mix.mix63 x >= 0)

let () =
  Alcotest.run "hashing"
    [
      ( "siphash",
        [
          Alcotest.test_case "reference vectors" `Quick
            siphash_reference_vectors;
          Alcotest.test_case "int64 fast path" `Quick siphash_int64_consistency;
          Alcotest.test_case "pair fast path" `Quick siphash_pair_consistency;
          Alcotest.test_case "key sensitivity" `Quick siphash_key_sensitivity;
          Alcotest.test_case "siphash-1-3 variant" `Quick siphash13_differs;
          Alcotest.test_case "key_of_rng" `Quick siphash_key_of_rng;
          Alcotest.test_case "midstate reference key" `Quick
            siphash_midstate_reference_key;
          Alcotest.test_case "midstate seeded sweep" `Quick
            siphash_midstate_seeded_sweep;
          Alcotest.test_case "midstate non-default instance" `Quick
            siphash_midstate_nondefault_instance;
        ] );
      ( "mix",
        [
          Alcotest.test_case "mix64 = splitmix" `Quick mix64_matches_splitmix;
          Alcotest.test_case "mix63 non-negative" `Quick mix63_non_negative;
          Alcotest.test_case "mix63 collisions" `Quick mix63_no_easy_collisions;
          Alcotest.test_case "combine63" `Quick combine63_depends_on_both;
        ] );
      ( "rank",
        [
          Alcotest.test_case "deterministic" `Quick rank_deterministic;
          Alcotest.test_case "non-negative" `Quick rank_non_negative;
          Alcotest.test_case "prepared agrees" `Quick rank_prepared_agrees;
          Alcotest.test_case "fresh is one bits draw" `Quick
            rank_fresh_one_draw;
          Alcotest.test_case "seed changes order" `Quick rank_seed_changes_order;
          Alcotest.test_case "min-wise uniformity (cheap)" `Slow
            (rank_minwise_uniformity Rank.Cheap);
          Alcotest.test_case "min-wise uniformity (siphash)" `Slow
            (rank_minwise_uniformity (Rank.Siphash ref_key));
          Alcotest.test_case "prefix-diverse deterministic" `Quick
            prefix_rank_deterministic;
          Alcotest.test_case "prefix-diverse prefix dominates" `Quick
            prefix_rank_prefix_dominates;
          Alcotest.test_case "prefix-diverse uniform within prefix" `Slow
            prefix_rank_uniform_within_prefix;
          Alcotest.test_case "prefix-diverse prepared agrees" `Quick
            prefix_rank_prepared_agrees;
        ] );
      ( "kernel",
        [
          Prop.case ~suite:"kernel" prop_kernel_scalar;
          kernel_avx512_case ();
          Alcotest.test_case "offer_slots rejects short arrays" `Quick
            offer_slots_rejects_short_arrays;
        ] );
      Prop.suite "properties"
        [
          prop_rank_paths_equal;
          prop_rank_is_mix_formula;
          prop_unchecked_path_equal;
          prop_sip_rank_matches_reference;
          prop_mix63_nonneg;
        ];
    ]
