type backend =
  | Cheap
  | Siphash of Siphash.key
  | Prefix_diverse of { prefix_of : int -> int }

(* A seed is the plain integer drawn for its slot; whatever a backend
   derives from it is derived where it is used.  The SipHash midstate
   (key and seed block absorbed) is prepared once per slot per
   [offer_slots] call, and once per [rank] call.  Rank
   *values* are exactly those of the uncached formulas — the caching
   moves work, never changes results (the test suite pins both the
   reference vectors and the cached = uncached equality). *)
let fresh rng = Basalt_prng.Rng.bits rng

(* Lexicographic (prefix-rank, id-rank) pair packed into one non-negative
   native integer: 30 bits of prefix rank above 32 bits of id rank. *)
let composite ~prefix_rank ~id_rank =
  ((prefix_rank land 0x3FFFFFFF) lsl 32) lor (id_rank land 0xFFFFFFFF)

(* [Mix.mix63], restated so the checked loop below keeps its arithmetic
   in this compilation unit: the dev profile compiles every library
   [-opaque], so a call into [Mix] is never inlined and would cost a real
   call per evaluation.  The property test in test_hashing.ml pins [rank] to
   [Mix.combine63].

   Its first step, [premix x = x lxor (x lsr 30)], is linear over
   [lxor] ([lsr] is a logical shift of the 63-bit pattern), so
   [mix63 (s lxor d) = tail (premix s lxor premix d)]: a rank
   [mix63 (seed lxor mix63 id)] splits into one premix per seed and one
   per identifier, and each (seed, candidate) pair pays only [tail]. *)
let[@inline] premix x = x lxor (x lsr 30)

(* [mix63] after its first step: two multiply rounds and the final
   mask.  rank_stubs.c states the same arithmetic for the [Cheap]
   kernel. *)
let[@inline] tail x =
  let x = x * 0x5851F42D4C957F2D in
  let x = (x lxor (x lsr 27)) * 0x14057B7EF767814F in
  (x lxor (x lsr 31)) land max_int

let[@inline] mix63 x = tail (premix x)

(* [digest id] is the identifier-side half of the cheap mixers, hoisted
   out of the per-slot loop and already premixed; backends that hash the
   identifier whole (SipHash) ignore it.  [rank_digested] takes the
   premixed seed [pseed]: the per-(seed, candidate) work is one mixer
   [tail] or one SipHash finish. *)
let digest id = premix (mix63 id)

let sip_finish ms id =
  Int64.to_int (Siphash.finish_int64_pair ms (Int64.of_int id)) land max_int

let sip_midstate key seed = Siphash.prepare_int64 key (Int64.of_int seed)

let prefix_diverse_rank prefix_of seed ~pseed ~id ~digest =
  composite
    ~prefix_rank:(Mix.combine63 seed (prefix_of id))
    ~id_rank:(tail (pseed lxor digest))

let rank_digested backend seed ~pseed ~id ~digest =
  match backend with
  | Cheap -> tail (pseed lxor digest)
  | Siphash key -> sip_finish (sip_midstate key seed) id
  | Prefix_diverse { prefix_of } ->
      prefix_diverse_rank prefix_of seed ~pseed ~id ~digest

let rank backend seed id =
  rank_digested backend seed ~pseed:(premix seed) ~id ~digest:(digest id)

(* The backends whose slots [offer_slots] ranks in OCaml, each over
   every slot of a node: per slot, the running best in locals, and per
   candidate the [stamp > since] check, one rank and one comparison.
   [Siphash] derives the slot's midstate once, so an evaluation only
   finishes the identifier block.  The [int array] annotations keep the
   comparisons monomorphic (unannotated, [>] on an array element is the
   polymorphic compare call).  A slot whose stamp is above [max_since]
   takes every candidate without reading [since]. *)
let offer_siphash key ~(seeds : int array) ~(stamps : int array)
    ~(raw : int array) ~(since : int array) ~max_since ~len
    ~(best_ranks : int array) ~(holders : int array) =
  let evals = ref 0 in
  for i = 0 to Array.length seeds - 1 do
    let stamp = Array.unsafe_get stamps i in
    let fresh = stamp > max_since in
    let ms = sip_midstate key (Array.unsafe_get seeds i) in
    let best = ref (Array.unsafe_get best_ranks i) in
    let holder = ref (Array.unsafe_get holders i) in
    for j = 0 to len - 1 do
      if fresh || stamp > Array.unsafe_get since j then begin
        incr evals;
        let id = Array.unsafe_get raw j in
        let r = sip_finish ms id in
        if r < !best || !holder < 0 then begin
          best := r;
          holder := id
        end
      end
    done;
    Array.unsafe_set best_ranks i !best;
    Array.unsafe_set holders i !holder
  done;
  !evals

let offer_prefix_diverse prefix_of ~(seeds : int array) ~(stamps : int array)
    ~(raw : int array) ~(dig : int array) ~(since : int array) ~max_since
    ~len ~(best_ranks : int array) ~(holders : int array) =
  let evals = ref 0 in
  for i = 0 to Array.length seeds - 1 do
    let stamp = Array.unsafe_get stamps i in
    let fresh = stamp > max_since in
    let seed = Array.unsafe_get seeds i in
    let pseed = premix seed in
    let best = ref (Array.unsafe_get best_ranks i) in
    let holder = ref (Array.unsafe_get holders i) in
    for j = 0 to len - 1 do
      if fresh || stamp > Array.unsafe_get since j then begin
        incr evals;
        let id = Array.unsafe_get raw j in
        let r =
          prefix_diverse_rank prefix_of seed ~pseed ~id
            ~digest:(Array.unsafe_get dig j)
        in
        if r < !best || !holder < 0 then begin
          best := r;
          holder := id
        end
      end
    done;
    Array.unsafe_set best_ranks i !best;
    Array.unsafe_set holders i !holder
  done;
  !evals

(* The [Cheap] kernel over every slot at once (rank_stubs.c): a scalar
   body, or an AVX-512 one that ranks each candidate against sixteen
   seeds per step, picked once when the library is loaded.  It checks no
   bound; [offer_slots] does. *)
external rank_cheap :
  int array ->
  int array ->
  int array ->
  int array ->
  int array ->
  int array ->
  int array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "basalt_rank_cheap_byte" "basalt_rank_cheap"
[@@noalloc]

let rec stamps_above (stamps : int array) max_since i =
  i >= Array.length stamps
  || (Array.unsafe_get stamps i > max_since
     && stamps_above stamps max_since (i + 1))

let offer_slots backend ~(seeds : int array) ~(stamps : int array) ~raw ~dig
    ~since ~max_since ~len ~(best_ranks : int array) ~(holders : int array) =
  let v = Array.length seeds in
  if
    Array.length stamps <> v
    || Array.length best_ranks <> v
    || Array.length holders <> v
  then invalid_arg "Rank.offer_slots: slot arrays of different lengths";
  if len < 0 || Array.length raw < len || Array.length dig < len then
    invalid_arg "Rank.offer_slots: candidate arrays shorter than len";
  if Array.length since < len && not (stamps_above stamps max_since 0) then
    invalid_arg "Rank.offer_slots: since shorter than len";
  match backend with
  | Cheap ->
      rank_cheap seeds stamps best_ranks holders raw dig since max_since len
  | Siphash key ->
      offer_siphash key ~seeds ~stamps ~raw ~since ~max_since ~len
        ~best_ranks ~holders
  | Prefix_diverse { prefix_of } ->
      offer_prefix_diverse prefix_of ~seeds ~stamps ~raw ~dig ~since
        ~max_since ~len ~best_ranks ~holders
