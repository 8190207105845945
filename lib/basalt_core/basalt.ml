module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message
module Rps = Basalt_proto.Rps
module Rng = Basalt_prng.Rng
module Obs = Basalt_obs.Obs
module Rank = Basalt_hashing.Rank

(* Slot state lives in parallel struct-of-arrays form: slot [i] is
   [(seeds.(i), holders.(i), best_ranks.(i), stamps.(i))].  The batched
   [update_sample] iterates slot-major over these flat int arrays —
   branch-light, cache-friendly, and allocation-free — instead of
   chasing one heap record per slot (DESIGN.md §4).

   On top of the layout sits a rank-work cache: [clock] counts reset
   bursts (a sample tick's k resets, or an eviction's), [stamps.(i)]
   records the burst in which slot [i]'s seed was drawn, and the
   seen-cache maps a candidate identifier to the clock value at which it
   was last offered to *all* slots — a 2-, 4- or 8-bit tag per id below
   the node's id bound, a hash table for the rest (see [offer]).
   Offering a candidate to
   an unchanged slot is a no-op (the slot's best rank only decreases
   between resets, so a re-offer can never install), hence a candidate
   seen at clock [s] only needs rank evaluations against slots with
   [stamps.(i) > s] — each candidate is hashed once per *seed*, not once
   per call.  No offer falls between the resets of one burst, so
   counting bursts instead of resets answers every [stamp > since] test
   the same way.  Rank values themselves are exactly the uncached ones;
   the differential oracle in test_basalt.ml pins the equivalence. *)

(* Batch scratch for [update_sample]: per prepared candidate, its id,
   its identifier-side digest and the clock of its previous offer,
   grown on demand to the largest batch seen.  Every node of one
   [factory] shares one scratch.  That is safe because [update_sample]
   fills and drains it within one call, calling out to nothing, and a
   factory's nodes belong to one run, which handles one event at a
   time. *)
type scratch = {
  mutable raw : int array;
  mutable digest : int array;
  mutable since : int array;
}

let fresh_scratch () = { raw = [||]; digest = [||]; since = [||] }

(* The seen-cache's table: int keys hashed by [Mix.mix63] (lint D3),
   each entry a mutable clock cell, so a hit costs one [find]. *)
module Seen = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Basalt_hashing.Mix.mix63
end)

type offer = { mutable last : int }

type t = {
  config : Config.t;
  id : Node_id.t;
  seeds : int array;  (* one [Rank.fresh] seed per slot *)
  holders : int array;  (* holders.(i) < 0 means slot i is empty *)
  best_ranks : int array;  (* max_int when empty *)
  stamps : int array;  (* clock value at which the slot's seed was drawn *)
  mutable clock : int;  (* reset bursts so far *)
  (* Seen-cache: candidate id -> clock at last offer.  Ids below
     [id_bound] index w-bit clock tags, the others live in a table (see
     [offer]). *)
  id_bound : int;
  tag_log_bits : int;  (* log2 of the tag width w: 1, 2 or 3 *)
  tags : Bytes.t;  (* w bits per id below the bound, 8/w ids a byte *)
  mutable tag_base : int;  (* tag g > 0 stands for clock tag_base + g - 1 *)
  mutable seen : offer Seen.t option;  (* None until the first other id *)
  scratch : scratch;  (* shared with the other nodes of its factory *)
  rng : Rng.t;
  send : Rps.send;
  mutable next_reset : int;  (* round-robin pointer r, 0-based *)
  mutable rounds : int;
  (* Dead-peer detection: peers we pulled from and the round of the
     oldest unanswered pull.  Allocated by the first probe, so a node
     without eviction carries none. *)
  mutable probes : (int, int) Hashtbl.t option;
  (* Per-node counter handles, each adding to its name's run-wide total
     (its own total on a disabled sink, DESIGN.md §8). *)
  c_rank_evals : Obs.Counter.t;
  c_rounds : Obs.Counter.t;
  c_pulls : Obs.Counter.t;
  c_pushes : Obs.Counter.t;
  c_samples : Obs.Counter.t;
  c_slot_resets : Obs.Counter.t;
  c_evictions : Obs.Counter.t;
  (* Pull-exchange lifecycle: request time and span per outstanding pull,
     feeding the run-wide "basalt.pull_rtt" sketch (DESIGN.md §8); the
     one shared inert tracker when the sink is disabled. *)
  rtt : Obs.rtt;
}

let config t = t.config
let id t = t.id

(* Past this size the seen-cache's table is swept of entries older than
   every slot's seed (they carry no information: such a candidate needs
   re-evaluation everywhere, same as an absent entry).  Round-robin
   resets cycle through all v slots every v/k ticks, so entries go stale
   at protocol speed and the cache stays O(candidates per slot
   lifetime). *)
let seen_prune_threshold t = (16 * Array.length t.holders) + 64

let min_stamp t = Array.fold_left (fun acc s -> Int.min acc s) max_int t.stamps

(* The seen-cache has two stores, and one rule picks the store: an id
   below [id_bound] — the factory's, the run's n in the simulator —
   uses the tags, every other id (each packed endpoint of the daemon,
   whose bound is 0) the table.  Neither store changes an output: an
   absent, pruned or rebased-away entry reads as -1, which costs the
   same evaluations as an entry older than every seed.

   [tags] packs one w-bit field per id, id [i] in byte [i / (8/w)] at
   bit [w * (i mod (8/w))]: field 0 means absent and field g means
   clock [tag_base + g - 1].  [seen] is allocated at the first id past
   the bound; each entry holds a mutable clock cell, so a hit costs one
   [find] and allocates nothing. *)

(* The tag width w is the fewest of 2, 4 or 8 bits whose largest field,
   2^w - 1, is at least ceil(v/k): round-robin resets reach every slot
   within that many bursts, so without evictions [clock - min_stamp] is
   at most ceil(v/k) - 1 (see [tags_rebase]). *)
let tag_log_bits config =
  let bursts = (config.Config.v + config.Config.k - 1) / config.Config.k in
  if bursts <= 3 then 1 else if bursts <= 15 then 2 else 3

(* The largest field, 2^w - 1. *)
let tag_max t = (1 lsl (1 lsl t.tag_log_bits)) - 1

(* The largest field stands for clock [tag_base + 2^w - 2].
   Before an offer records a later clock, the tags are rebased once to
   the oldest slot stamp: a field older than the new base becomes 0.
   Such an entry is older than every seed, so reading it as absent
   costs exactly the evaluations it did before, and the rebase changes
   no holder, no rank and no [basalt.rank_evals] as long as
   [clock - min_stamp <= 2^w - 2], which the width guarantees unless
   evictions widened the gap.  Past it, the base is clamped to
   [clock - (2^w - 2)], which forgets entries some slots have already
   seen.  Re-offering those can never install (each such slot's best
   rank is already at most the candidate's), so the clamp costs extra
   evaluations and never changes a view. *)
let tags_rebase t clock =
  let w = 1 lsl t.tag_log_bits in
  let field = tag_max t in
  let base = Int.max (min_stamp t) (clock - (field - 1)) in
  let shift = base - t.tag_base in
  let tags = t.tags in
  for i = 0 to Bytes.length tags - 1 do
    let b = Bytes.get_uint8 tags i in
    if b <> 0 then begin
      let out = ref 0 in
      let off = ref 0 in
      while !off < 8 do
        let g = (b lsr !off) land field in
        if Int.compare g shift > 0 then out := !out lor ((g - shift) lsl !off);
        off := !off + w
      done;
      Bytes.set_uint8 tags i !out
    end
  done;
  t.tag_base <- base

let table_exchange t key clock =
  let table =
    match t.seen with
    | Some table -> table
    | None ->
        let table = Seen.create 64 in
        t.seen <- Some table;
        table
  in
  match Seen.find table key with
  | offer ->
      let last = offer.last in
      offer.last <- clock;
      last
  | exception Not_found ->
      Seen.add table key { last = clock };
      -1

(* Drops the table entries older than every slot's seed (the tags are
   fixed-size and need no prune). *)
let prune_seen t =
  match t.seen with
  | Some table when Int.compare (Seen.length table) (seen_prune_threshold t) > 0
    ->
      let oldest = min_stamp t in
      Seen.filter_map_inplace
        (fun _ offer ->
          if Int.compare offer.last oldest < 0 then None else Some offer)
        table
  | Some _ | None -> ()

let ensure_batch_capacity sc n =
  if Array.length sc.raw < n then begin
    let cap = Int.max n (2 * Array.length sc.raw) in
    sc.raw <- Array.make cap 0;
    sc.digest <- Array.make cap 0;
    sc.since <- Array.make cap (-1)
  end

(* Offers [ids], then [sender] when it is an identifier (non-negative),
   as one batch: each slot sees them in that order, so holders, ranks
   and evaluations are those of offering [sender] alone after [ids]. *)
let offer t (ids : Node_id.t array) ~sender =
  let n = Array.length ids in
  let total = if sender >= 0 then n + 1 else n in
  if total > 0 then begin
    let sc = t.scratch in
    ensure_batch_capacity sc total;
    let clock = t.clock and self = (t.id :> int) in
    let raw = sc.raw and dig = sc.digest and since = sc.since in
    (* The clock is fixed within one offer, so one rebase check covers
       every tag it writes. *)
    let field = tag_max t in
    if clock - t.tag_base > field - 1 then tags_rebase t clock;
    let tags = t.tags and bound = t.id_bound and base = t.tag_base in
    let lw = t.tag_log_bits in
    let byte_shift = 3 - lw and in_byte = (8 lsr lw) - 1 in
    let fresh = clock - base + 1 in
    (* Intake pass: drop self, dedup within the batch, and skip any
       candidate already offered to every current seed (pull replies
       routinely repeat ids across rounds, and the sender, staged last,
       is often among them).  Each candidate's tag is read and
       rewritten in place.  Survivors are prepared once —
       identifier-side digest hoisted out of the slot loop. *)
    let len = ref 0 in
    let max_since = ref (-1) in
    for idx = 0 to total - 1 do
      let cand =
        if Int.compare idx n < 0 then (Array.unsafe_get ids idx :> int)
        else sender
      in
      if not (Int.equal cand self) then begin
        let last =
          if Int.compare cand bound < 0 then begin
            let byte = cand lsr byte_shift in
            let off = (cand land in_byte) lsl lw in
            let b = Bytes.get_uint8 tags byte in
            let g = (b lsr off) land field in
            Bytes.set_uint8 tags byte
              (b land lnot (field lsl off) lor (fresh lsl off));
            if Int.equal g 0 then -1 else base + g - 1
          end
          else table_exchange t cand clock
        in
        if Int.compare last clock < 0 then begin
          let j = !len in
          Array.unsafe_set raw j cand;
          Array.unsafe_set dig j (Rank.digest cand);
          Array.unsafe_set since j last;
          if Int.compare last !max_since > 0 then max_since := last;
          incr len
        end
      end
    done;
    let len = !len and max_since = !max_since in
    if len > 0 then begin
      (* Slot-major pass: one kernel call ranks the prepared candidates
         against every slot.  A candidate last offered at clock [s] is
         evaluated only against seeds drawn after [s]; a slot whose seed
         postdates [max_since] takes the whole batch unchecked. *)
      let evals =
        Rank.offer_slots t.config.Config.backend ~seeds:t.seeds
          ~stamps:t.stamps ~raw ~dig ~since ~max_since ~len
          ~best_ranks:t.best_ranks ~holders:t.holders
      in
      (* Rank evaluations actually performed after dedup and seen-cache
         elision — not candidates × slots (DESIGN.md §8). *)
      Obs.Counter.add t.c_rank_evals evals
    end
  end

let update_sample t ids = offer t ids ~sender:(-1)

let reset_slot t i =
  t.seeds.(i) <- Rank.fresh t.rng;
  t.holders.(i) <- -1;
  t.best_ranks.(i) <- max_int;
  t.stamps.(i) <- t.clock

let factory ?(config = Config.default) ?(obs = Obs.disabled) ?(id_bound = 0)
    () =
  if id_bound < 0 then invalid_arg "Basalt.factory: negative id_bound";
  let scratch = fresh_scratch () in
  let tag_log_bits = tag_log_bits config in
  let tag_bytes = ((id_bound lsl tag_log_bits) + 7) / 8 in
  fun ~id ~bootstrap ~rng ~send ->
    let rng = Rng.split rng in
    let v = config.Config.v in
    let seeds = Array.init v (fun _ -> Rank.fresh rng) in
    let send = Basalt_codec.Metered.send obs ~proto:"basalt" send in
    let t =
      {
        config;
        id;
        seeds;
        holders = Array.make v (-1);
        best_ranks = Array.make v max_int;
        stamps = Array.make v 0;
        clock = 0;
        id_bound;
        tag_log_bits;
        tags = Bytes.make tag_bytes '\000';
        tag_base = 0;
        seen = None;
        scratch;
        rng;
        send;
        next_reset = 0;
        rounds = 0;
        probes = None;
        c_rank_evals = Obs.counter obs "basalt.rank_evals";
        c_rounds = Obs.counter obs "basalt.rounds";
        c_pulls = Obs.counter obs "basalt.pulls_sent";
        c_pushes = Obs.counter obs "basalt.pushes_sent";
        c_samples = Obs.counter obs "basalt.samples_emitted";
        c_slot_resets = Obs.counter obs "basalt.slot_resets";
        c_evictions = Obs.counter obs "basalt.evictions";
        rtt = Obs.rtt obs ~name:"basalt.pull";
      }
    in
    update_sample t bootstrap;
    t

let create ?config ?obs ~id ~bootstrap ~rng ~send () =
  factory ?config ?obs () ~id ~bootstrap ~rng ~send

let slot_peer t i =
  let h = t.holders.(i) in
  if h < 0 then None else Some (Node_id.of_int h)

let view t =
  let holders = t.holders in
  let filled = ref 0 in
  for i = 0 to Array.length holders - 1 do
    if Array.unsafe_get holders i >= 0 then incr filled
  done;
  let out = Array.make !filled (Node_id.of_int 0) in
  let j = ref 0 in
  for i = 0 to Array.length holders - 1 do
    let h = Array.unsafe_get holders i in
    if h >= 0 then begin
      Array.unsafe_set out !j (Node_id.of_int h);
      incr j
    end
  done;
  out

let view_slots t = Array.init (Array.length t.holders) (slot_peer t)

let slot_ranks t =
  Array.init (Array.length t.holders) (fun i ->
      if t.holders.(i) < 0 then None else Some t.best_ranks.(i))

(* Alg. 1's selectPeer: a uniformly random slot.  A few random draws
   come first, then a scan, so that a mostly-empty view during bootstrap
   still yields a peer. *)
let select_peer t =
  let v = Array.length t.holders in
  let rec try_random attempts =
    if attempts = 0 then begin
      let rec scan i =
        if Int.compare i v >= 0 then None
        else match slot_peer t i with Some p -> Some p | None -> scan (i + 1)
      in
      scan 0
    end
    else
      match slot_peer t (Rng.int t.rng v) with
      | Some p -> Some p
      | None -> try_random (attempts - 1)
  in
  try_random 8

(* Reset every slot currently holding [peer] and re-offer the rest of the
   view, so the freed slots immediately converge to live candidates. *)
let evict_peer t peer =
  let peer_int = Node_id.to_int peer in
  let snapshot =
    Array.of_list
      (List.filter
         (fun p -> not (Node_id.equal p peer))
         (Array.to_list (view t)))
  in
  (* One burst: the clock advances once, before the peer's slots are
     reset, and only when some slot holds the peer. *)
  if Array.exists (Int.equal peer_int) t.holders then t.clock <- t.clock + 1;
  for i = 0 to Array.length t.holders - 1 do
    if Int.equal t.holders.(i) peer_int then begin
      reset_slot t i;
      Obs.Counter.incr t.c_evictions
    end
  done;
  (* The node has given up on the peer: its unanswered pull will never
     complete, so it must not stay pending in the RTT tracker. *)
  Obs.rtt_abandon t.rtt ~peer:peer_int;
  update_sample t snapshot

let run_eviction t ~limit =
  match t.probes with
  | None -> ()
  | Some probes ->
      (* Evicting consumes PRNG draws (slot resets), so the eviction
         order must not depend on [Hashtbl] iteration order — sort by
         node id to keep executions a pure function of the protocol
         history. *)
      let expired =
        List.sort Int.compare
          (Hashtbl.fold
             (fun peer probed acc ->
               if t.rounds - probed > limit then peer :: acc else acc)
             probes [])
      in
      List.iter
        (fun peer ->
          Hashtbl.remove probes peer;
          evict_peer t (Node_id.of_int peer))
        expired

let record_probe t peer =
  let probes =
    match t.probes with
    | Some probes -> probes
    | None ->
        let probes = Hashtbl.create 16 in
        t.probes <- Some probes;
        probes
  in
  let key = Node_id.to_int peer in
  if not (Hashtbl.mem probes key) then Hashtbl.replace probes key t.rounds

let clear_probe t peer =
  match t.probes with
  | Some probes -> Hashtbl.remove probes (Node_id.to_int peer)
  | None -> ()

let abandon_pull t peer = Obs.rtt_abandon t.rtt ~peer:(Node_id.to_int peer)
let pending_pulls t = Obs.rtt_pending t.rtt

let on_round t =
  t.rounds <- t.rounds + 1;
  Obs.Counter.incr t.c_rounds;
  (match t.config.Config.evict_after_rounds with
  | Some limit -> run_eviction t ~limit
  | None -> ());
  (match select_peer t with
  | Some p ->
      (* Record the probe before sending so that a reply — however fast —
         always clears it. *)
      (match t.config.Config.evict_after_rounds with
      | Some _ -> record_probe t p
      | None -> ());
      Obs.Counter.incr t.c_pulls;
      Obs.rtt_start t.rtt ~node:(Node_id.to_int t.id)
        ~peer:(Node_id.to_int p);
      t.send ~dst:p Message.Pull_request
  | None -> ());
  match select_peer t with
  | Some q ->
      Obs.Counter.incr t.c_pushes;
      t.send ~dst:q (Message.Push (view t))
  | None -> ()

let on_message t ~from msg =
  (* Any traffic from a peer proves it alive. *)
  clear_probe t from;
  match msg with
  | Message.Pull_request -> t.send ~dst:from (Message.Pull_reply (view t))
  | Message.Pull_reply ids ->
      Obs.rtt_finish t.rtt ~peer:(Node_id.to_int from);
      (* Alg. 1 line 13: the sender itself is a candidate too. *)
      offer t ids ~sender:(from :> int)
  | Message.Push ids -> offer t ids ~sender:(from :> int)
  (* Basalt pushes its whole view; a lone id comes from a Brahms peer or
     a push-id frame off the wire. *)
  | Message.Push_id id -> offer t [||] ~sender:(id :> int)
  (* Broadcast frames belong to the lib/gossip layer sharing the socket;
     the sampler only takes the liveness signal above. *)
  | Message.Gossip _ | Message.Ihave _ | Message.Iwant _ | Message.Graft
  | Message.Prune ->
      ()

let sample_tick t =
  let v = Array.length t.holders in
  let k = t.config.Config.k in
  (* Snapshot the pre-reset view: Alg. 1 line 19 re-offers "the current
     view", in which the just-reset slots still hold their old peers. *)
  let snapshot = view t in
  let samples = ref [] in
  (* One burst: the clock advances once, before the k resets. *)
  t.clock <- t.clock + 1;
  for _ = 1 to k do
    let i = t.next_reset in
    t.next_reset <- (t.next_reset + 1) mod v;
    (match slot_peer t i with
    | Some p ->
        samples := p :: !samples;
        Obs.Counter.incr t.c_samples
    | None -> ());
    reset_slot t i;
    Obs.Counter.incr t.c_slot_resets
  done;
  prune_seen t;
  update_sample t snapshot;
  List.rev !samples


let to_rps t =
  {
    Rps.protocol = "basalt";
    node = id t;
    on_message = (fun ~from msg -> on_message t ~from msg);
    on_round = (fun () -> on_round t);
    sample_tick = (fun () -> sample_tick t);
    current_view = (fun () -> view t);
  }

let sampler ?config ?obs ?id_bound () : Rps.maker =
  let make = factory ?config ?obs ?id_bound () in
  fun ~id ~bootstrap ~rng ~send -> to_rps (make ~id ~bootstrap ~rng ~send)
