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

(* [digest id] is the identifier-side half of the cheap mixers, hoisted
   out of the per-slot loop; backends that hash the identifier whole
   (SipHash) ignore it.  [rank_digested] is the hot-path primitive: the
   caller prepares [digest id] once per candidate and the per-(seed,
   candidate) work is one mixer tail or one SipHash finish. *)
let digest id = Mix.mix63 id

let sip_finish ms id =
  Int64.to_int (Siphash.finish_int64_pair ms (Int64.of_int id)) land max_int

let sip_midstate key seed = Siphash.prepare_int64 key (Int64.of_int seed)

let rank_digested backend seed ~id ~digest =
  match backend with
  | Cheap -> Mix.mix63 (seed lxor digest)
  | Keyed_cheap key -> Mix.mix63 (key lxor Mix.mix63 (seed lxor digest))
  | Siphash key -> sip_finish (sip_midstate key seed) id
  | Prefix_diverse { prefix_of } ->
      composite
        ~prefix_rank:(Mix.combine63 seed (prefix_of id))
        ~id_rank:(Mix.mix63 (seed lxor digest))

let rank backend seed id =
  rank_digested backend seed ~id ~digest:(Mix.mix63 id)

(* [Mix.mix63], restated so the kernel below keeps its arithmetic in this
   compilation unit: the dev profile compiles every library [-opaque], so
   a call into [Mix] is never inlined and would cost a real call per
   evaluation.  The differential oracle in test_basalt.ml, which ranks
   with [rank], pins the two as equal. *)
let[@inline] mix63 x =
  let x = (x lxor (x lsr 30)) * 0x5851F42D4C957F2D in
  let x = (x lxor (x lsr 27)) * 0x14057B7EF767814F in
  (x lxor (x lsr 31)) land max_int

(* One slot whose seed postdates every candidate's last offer, on the
   [Cheap] backend: every candidate is ranked, so the loop needs neither
   the [since] test nor an evaluation counter (the count is [len]).  An
   empty slot takes the first candidate outright, after which a holder
   is present (identifiers are non-negative, as [Node_id] guarantees)
   and only [r < best] can replace it; the rest run four
   evaluations per step, compared in arrival order, then a scalar tail.
   Holders and ranks are exactly those of the checked loop below. *)
let offer_fresh_cheap seed ~(raw : int array) ~(dig : int array) ~len
    ~(best_ranks : int array) ~(holders : int array) i =
  if len > 0 then begin
    let best = ref (Array.unsafe_get best_ranks i) in
    let holder = ref (Array.unsafe_get holders i) in
    let j = ref 0 in
    if !holder < 0 then begin
      best := mix63 (seed lxor Array.unsafe_get dig 0);
      holder := Array.unsafe_get raw 0;
      j := 1
    end;
    while !j + 3 < len do
      let j0 = !j in
      let r0 = mix63 (seed lxor Array.unsafe_get dig j0) in
      let r1 = mix63 (seed lxor Array.unsafe_get dig (j0 + 1)) in
      let r2 = mix63 (seed lxor Array.unsafe_get dig (j0 + 2)) in
      let r3 = mix63 (seed lxor Array.unsafe_get dig (j0 + 3)) in
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
      let r = mix63 (seed lxor Array.unsafe_get dig !j) in
      if r < !best then begin
        best := r;
        holder := Array.unsafe_get raw !j
      end;
      incr j
    done;
    Array.unsafe_set best_ranks i !best;
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
let offer_checked backend seed ~fresh ~stamp ~(raw : int array)
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
          let r = mix63 (seed lxor Array.unsafe_get dig j) in
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
          let r = mix63 (key lxor mix63 (seed lxor Array.unsafe_get dig j)) in
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
            rank_digested backend seed ~id:(Array.unsafe_get raw j)
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
  let fresh = stamp > max_since in
  match backend with
  | Cheap when fresh ->
      offer_fresh_cheap seed ~raw ~dig ~len ~best_ranks ~holders i;
      len
  | Cheap | Keyed_cheap _ | Siphash _ | Prefix_diverse _ ->
      offer_checked backend seed ~fresh ~stamp ~raw ~dig ~since ~len
        ~best_ranks ~holders i
