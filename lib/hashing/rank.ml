type backend =
  | Cheap
  | Keyed_cheap of int
  | Siphash of Siphash.key
  | Prefix_diverse of { prefix_of : int -> int }

(* A seed is the plain integer drawn for its slot; whatever a backend
   derives from it is derived where it is used.  The SipHash midstate
   (key and seed block absorbed) is prepared once per [offer_slot] call,
   i.e. once per slot per batch, and once per [rank] call.  Rank
   *values* are exactly those of the uncached formulas — the caching
   moves work, never changes results (the test suite pins both the
   reference vectors and the cached = uncached equality). *)
let fresh rng = Basalt_prng.Rng.bits rng

(* Lexicographic (prefix-rank, id-rank) pair packed into one non-negative
   native integer: 30 bits of prefix rank above 32 bits of id rank. *)
let composite ~prefix_rank ~id_rank =
  ((prefix_rank land 0x3FFFFFFF) lsl 32) lor (id_rank land 0xFFFFFFFF)

(* [Mix.mix63], restated so the kernel below keeps its arithmetic in this
   compilation unit: the dev profile compiles every library [-opaque], so
   a call into [Mix] is never inlined and would cost a real call per
   evaluation.  The property test in test_hashing.ml pins [rank] to
   [Mix.combine63].

   Its first step, [premix x = x lxor (x lsr 30)], is linear over
   [lxor] ([lsr] is a logical shift of the 63-bit pattern), so
   [mix63 (s lxor d) = tail (premix s lxor premix d)]: a rank
   [mix63 (seed lxor mix63 id)] splits into one premix per seed and one
   per identifier, and each (seed, candidate) pair pays only [tail]. *)
let[@inline] premix x = x lxor (x lsr 30)

(* [tail] runs in unboxed [int64] arithmetic: on [int], ocamlopt
   re-tags every intermediate (an [or 1] after each xor, a decrement and
   an increment around a multiply), which the loops below would pay per
   evaluation.  A 63-bit [int] rides in the low 63 bits of an [int64]
   whose top bit is left undefined: products and xors keep those bits
   exact, a logical shift of the 63-bit pattern by [k] is a left shift
   by 1 then a logical right shift by [k + 1], and the final mask keeps
   [max_int]'s 62 bits, so the result is the exact, non-negative [int]
   rank. *)
let[@inline] lsr63 x k =
  Int64.shift_right_logical (Int64.shift_left x 1) (k + 1)

let[@inline] tail64 x =
  let x = Int64.mul x 0x5851F42D4C957F2DL in
  let x = Int64.mul (Int64.logxor x (lsr63 x 27)) 0x14057B7EF767814FL in
  Int64.logand (Int64.logxor x (lsr63 x 31)) 0x3FFF_FFFF_FFFF_FFFFL

let[@inline] tail x = Int64.to_int (tail64 (Int64.of_int x))
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

let rank_digested backend seed ~pseed ~id ~digest =
  match backend with
  | Cheap -> tail (pseed lxor digest)
  | Keyed_cheap key -> mix63 (key lxor tail (pseed lxor digest))
  | Siphash key -> sip_finish (sip_midstate key seed) id
  | Prefix_diverse { prefix_of } ->
      composite
        ~prefix_rank:(Mix.combine63 seed (prefix_of id))
        ~id_rank:(tail (pseed lxor digest))

let rank backend seed id =
  rank_digested backend seed ~pseed:(premix seed) ~id ~digest:(digest id)

(* [tail (pseed lxor dig.(j))] as an [int64], [p] the premixed seed. *)
let[@inline] rank64 p (dig : int array) j =
  tail64 (Int64.logxor p (Int64.of_int (Array.unsafe_get dig j)))

(* One slot whose seed ([pseed], premixed) postdates every candidate's
   last offer, on the [Cheap] backend: every candidate is ranked, so the
   loop needs neither the [since] test nor an evaluation counter (the
   count is [len]).  An empty slot takes the first candidate outright,
   after which a holder is present (identifiers are non-negative, as
   [Node_id] guarantees) and only [r < best] can replace it; the rest
   run four evaluations per step, compared in arrival order, then one
   at a time.  Holders and ranks are exactly those of the checked loop
   below. *)
let offer_fresh_cheap pseed ~(raw : int array) ~(dig : int array) ~len
    ~(best_ranks : int array) ~(holders : int array) i =
  if len > 0 then begin
    let p = Int64.of_int pseed in
    let best = ref (Int64.of_int (Array.unsafe_get best_ranks i)) in
    let holder = ref (Array.unsafe_get holders i) in
    let j = ref 0 in
    if !holder < 0 then begin
      best := rank64 p dig 0;
      holder := Array.unsafe_get raw 0;
      j := 1
    end;
    while !j + 3 < len do
      let j0 = !j in
      let r0 = rank64 p dig j0 in
      let r1 = rank64 p dig (j0 + 1) in
      let r2 = rank64 p dig (j0 + 2) in
      let r3 = rank64 p dig (j0 + 3) in
      if r0 < !best then begin
        best := r0;
        holder := Array.unsafe_get raw j0
      end;
      if r1 < !best then begin
        best := r1;
        holder := Array.unsafe_get raw (j0 + 1)
      end;
      if r2 < !best then begin
        best := r2;
        holder := Array.unsafe_get raw (j0 + 2)
      end;
      if r3 < !best then begin
        best := r3;
        holder := Array.unsafe_get raw (j0 + 3)
      end;
      j := j0 + 4
    done;
    while !j < len do
      let r = rank64 p dig !j in
      if r < !best then begin
        best := r;
        holder := Array.unsafe_get raw !j
      end;
      incr j
    done;
    Array.unsafe_set best_ranks i (Int64.to_int !best);
    Array.unsafe_set holders i !holder
  end

(* One slot against a prepared batch, checked: one backend dispatch per
   slot, the running best in locals, and for the cheap backends
   straight-line int arithmetic per candidate.  The [int array]
   annotations keep the comparisons monomorphic (unannotated, [>] on an
   array element is the polymorphic compare call).  When [fresh] (every
   candidate would pass the [since] test) the backends other than
   [Cheap] skip reading [since]; [offer_slot] sends [Cheap] here only
   when [fresh] is false. *)
let offer_checked backend seed ~pseed ~fresh ~stamp ~(raw : int array)
    ~(dig : int array) ~(since : int array) ~len ~(best_ranks : int array)
    ~(holders : int array) i =
  let best = ref (Array.unsafe_get best_ranks i) in
  let holder = ref (Array.unsafe_get holders i) in
  let evals = ref 0 in
  (match backend with
  | Cheap ->
      for j = 0 to len - 1 do
        if stamp > Array.unsafe_get since j then begin
          incr evals;
          let r = tail (pseed lxor Array.unsafe_get dig j) in
          if r < !best || !holder < 0 then begin
            best := r;
            holder := Array.unsafe_get raw j
          end
        end
      done
  | Keyed_cheap key ->
      for j = 0 to len - 1 do
        if fresh || stamp > Array.unsafe_get since j then begin
          incr evals;
          let r = mix63 (key lxor tail (pseed lxor Array.unsafe_get dig j)) in
          if r < !best || !holder < 0 then begin
            best := r;
            holder := Array.unsafe_get raw j
          end
        end
      done
  | Siphash key ->
      let ms = sip_midstate key seed in
      for j = 0 to len - 1 do
        if fresh || stamp > Array.unsafe_get since j then begin
          incr evals;
          let r = sip_finish ms (Array.unsafe_get raw j) in
          if r < !best || !holder < 0 then begin
            best := r;
            holder := Array.unsafe_get raw j
          end
        end
      done
  | Prefix_diverse _ ->
      for j = 0 to len - 1 do
        if fresh || stamp > Array.unsafe_get since j then begin
          incr evals;
          let r =
            rank_digested backend seed ~pseed ~id:(Array.unsafe_get raw j)
              ~digest:(Array.unsafe_get dig j)
          in
          if r < !best || !holder < 0 then begin
            best := r;
            holder := Array.unsafe_get raw j
          end
        end
      done);
  Array.unsafe_set best_ranks i !best;
  Array.unsafe_set holders i !holder;
  !evals

let offer_slot backend seed ~stamp ~raw ~dig ~since ~max_since ~len ~best_ranks
    ~holders i =
  let fresh = stamp > max_since and pseed = premix seed in
  match backend with
  | Cheap when fresh ->
      offer_fresh_cheap pseed ~raw ~dig ~len ~best_ranks ~holders i;
      len
  | Cheap | Keyed_cheap _ | Siphash _ | Prefix_diverse _ ->
      offer_checked backend seed ~pseed ~fresh ~stamp ~raw ~dig ~since ~len
        ~best_ranks ~holders i
