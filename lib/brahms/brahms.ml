module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message
module Rps = Basalt_proto.Rps
module View_ops = Basalt_proto.View_ops
module Rng = Basalt_prng.Rng
module Rank = Basalt_hashing.Rank
module Obs = Basalt_obs.Obs

(* Batch scratch for [offer_batch]: per candidate, its id and its
   identifier-side digest, grown on demand to the largest batch seen,
   and [stamps], the samplers' stamps for [Rank.offer_slots]: all 0, so
   every one postdates a [max_since] of -1 (a maker's nodes share one
   config, so one [l]).  Every node of one [sampler] maker shares one
   scratch, as with [Basalt.factory]: a batch is filled and drained
   within one call that calls out to nothing, and a maker's nodes belong
   to one run, which handles one event at a time. *)
type scratch = {
  mutable raw : int array;
  mutable dig : int array;
  mutable stamps : int array;
}

let fresh_scratch () = { raw = [||]; dig = [||]; stamps = [||] }

type t = {
  config : Brahms_config.t;
  id : Node_id.t;
  rng : Rng.t;
  send : Rps.send;
  mutable view : Node_id.t array;
  (* The sampler vector 𝒮 as struct-of-arrays: sampler [i] is
     [(seeds.(i), holders.(i), best_ranks.(i))], the layout
     [Rank.offer_slots] works on. *)
  seeds : int array;
  holders : int array;  (* holders.(i) < 0 means sampler i is empty *)
  best_ranks : int array;  (* max_int when empty *)
  scratch : scratch;  (* shared with the other nodes of its maker *)
  mutable pending_push : Node_id.t list;
  (* This round's pull replies, newest first.  Message payloads are
     never mutated once sent, so the arrays are kept as received. *)
  mutable pending_pull : Node_id.t array list;
  mutable next_reset : int;
  (* Per-node counter handles, each adding to its name's run-wide total
     (DESIGN.md §8). *)
  c_rank_evals : Obs.Counter.t;
  c_rounds : Obs.Counter.t;
  c_pulls : Obs.Counter.t;
  c_pushes : Obs.Counter.t;
  c_samples : Obs.Counter.t;
  c_slot_resets : Obs.Counter.t;
  c_view_rebuilds : Obs.Counter.t;
  (* Pull-exchange lifecycle, feeding the run-wide "brahms.pull_rtt"
     sketch (DESIGN.md §8). *)
  rtt : Obs.rtt;
}


let ensure_batch_capacity sc n =
  if Array.length sc.raw < n then begin
    let cap = Int.max n (2 * Array.length sc.raw) in
    sc.raw <- Array.make cap 0;
    sc.dig <- Array.make cap 0
  end

(* Offers the [len] candidates staged in the scratch to every sampler,
   in one kernel call.  Each sampler sees the candidates in arrival
   order, as an id-major feed would offer them, so holders and ranks are
   those of offering one id at a time.  Brahms keeps no seen-cache, so
   every candidate is fresh to every sampler: stamps of 0 above a
   [max_since] of -1 rank them all and read no [since]. *)
let offer_batch t len =
  let sc = t.scratch in
  Obs.Counter.add t.c_rank_evals
    (Rank.offer_slots Rank.Cheap ~seeds:t.seeds ~stamps:sc.stamps ~raw:sc.raw
       ~dig:sc.dig ~since:[||] ~max_since:(-1) ~len ~best_ranks:t.best_ranks
       ~holders:t.holders)

(* Stages [cand] at index [len] of the scratch, unless it is the node's
   own id; returns the new batch length.  The caller has ensured the
   capacity. *)
let stage t len (cand : Node_id.t) =
  let cand = (cand :> int) in
  if Int.equal cand (t.id :> int) then len
  else begin
    Array.unsafe_set t.scratch.raw len cand;
    Array.unsafe_set t.scratch.dig len (Rank.digest cand);
    len + 1
  end

let feed_samplers t ids =
  ensure_batch_capacity t.scratch (Array.length ids);
  let len = ref 0 in
  for j = 0 to Array.length ids - 1 do
    len := stage t !len (Array.unsafe_get ids j)
  done;
  if !len > 0 then offer_batch t !len

let feed_sampler t id =
  ensure_batch_capacity t.scratch 1;
  if stage t 0 id > 0 then offer_batch t 1

let make ~scratch ?(config = Brahms_config.default) ?(obs = Obs.disabled) ~id
    ~bootstrap ~rng ~send () =
  let rng = Rng.split rng in
  let send = Basalt_codec.Metered.send obs ~proto:"brahms" send in
  let l = config.Brahms_config.l in
  let seeds = Array.init l (fun _ -> Rank.fresh rng) in
  if Array.length scratch.stamps <> l then scratch.stamps <- Array.make l 0;
  let initial_view =
    let candidates =
      Array.of_list
        (List.filter
           (fun p -> not (Node_id.equal p id))
           (Array.to_list bootstrap))
    in
    (* lint: allow D10 — bootstrap-time entanglement: samplers and the
       initial view consume the one creation stream in a fixed order that
       the pinned Brahms outcomes depend on; a split would change them. *)
    View_ops.random_subset rng ~k:l candidates
  in
  let t =
    {
      config;
      id;
      rng;
      send;
      view = initial_view;
      seeds;
      holders = Array.make l (-1);
      best_ranks = Array.make l max_int;
      scratch;
      pending_push = [];
      pending_pull = [];
      next_reset = 0;
      c_rank_evals = Obs.counter obs "brahms.rank_evals";
      c_rounds = Obs.counter obs "brahms.rounds";
      c_pulls = Obs.counter obs "brahms.pulls_sent";
      c_pushes = Obs.counter obs "brahms.pushes_sent";
      c_samples = Obs.counter obs "brahms.samples_emitted";
      c_slot_resets = Obs.counter obs "brahms.slot_resets";
      c_view_rebuilds = Obs.counter obs "brahms.view_rebuilds";
      rtt = Obs.rtt obs ~name:"brahms.pull";
    }
  in
  feed_samplers t bootstrap;
  t

let sampler_outputs t =
  let holders = t.holders in
  let filled = ref 0 in
  Array.iter (fun h -> if h >= 0 then incr filled) holders;
  let out = Array.make !filled t.id in
  let k = ref 0 in
  Array.iter
    (fun h ->
      if h >= 0 then begin
        out.(!k) <- Node_id.of_int h;
        incr k
      end)
    holders;
  out

(* This round's pulled ids, newest reply first and each reply reversed:
   the order in which prepending every reply's ids to one list would
   hold them. *)
let pulled_ids t =
  let n = List.fold_left (fun acc r -> acc + Array.length r) 0 t.pending_pull in
  let out = Array.make n t.id in
  let k = ref 0 in
  List.iter
    (fun r ->
      for j = Array.length r - 1 downto 0 do
        out.(!k) <- r.(j);
        incr k
      done)
    t.pending_pull;
  out

(* Rebuild the view per Eq. (2) with alpha = beta = gamma = 1/3:
   rand(l/3, pushed) ∪ rand(l/3, pulled) ∪ rand(l/3, samplers). *)
let rebuild_view t =
  if List.is_empty t.pending_push || List.is_empty t.pending_pull then
    (* Original Brahms only rebuilds when the round yielded both pushed
       and pulled identifiers; otherwise the previous view persists.
       This gating is part of Brahms's resilience: the push channel is
       honest-dominated, so a round fed only by pull replies cannot
       replace the view. *)
    ()
  else begin
    let third =
      int_of_float
        (Float.round ((1.0 /. 3.0) *. float_of_int t.config.Brahms_config.l))
    in
    let take arr = View_ops.random_subset t.rng ~k:third arr in
    (* Drawn sampler outputs first, then pulled, then pushed ids: the
       order the pinned Brahms outcomes depend on. *)
    let sampled = take (View_ops.distinct (sampler_outputs t)) in
    let pulled = take (View_ops.distinct (pulled_ids t)) in
    let pushed = take (View_ops.distinct (Array.of_list t.pending_push)) in
    let candidates = Array.concat [ pushed; pulled; sampled ] in
    if Array.length candidates > 0 then begin
      t.view <- candidates;
      Obs.Counter.incr t.c_view_rebuilds
    end
  end

let on_round t =
  Obs.Counter.incr t.c_rounds;
  rebuild_view t;
  t.pending_push <- [];
  t.pending_pull <- [];
  (match View_ops.random_member t.rng t.view with
  | Some p ->
      Obs.Counter.incr t.c_pushes;
      t.send ~dst:p (Message.Push_id t.id)
  | None -> ());
  match View_ops.random_member t.rng t.view with
  | Some q ->
      Obs.Counter.incr t.c_pulls;
      Obs.rtt_start t.rtt ~node:(Node_id.to_int t.id) ~peer:(Node_id.to_int q);
      t.send ~dst:q Message.Pull_request
  | None -> ()

let on_message t ~from msg =
  match msg with
  | Message.Pull_request -> t.send ~dst:from (Message.Pull_reply t.view)
  | Message.Push_id id ->
      t.pending_push <- id :: t.pending_push;
      feed_sampler t id
  | Message.Push ids ->
      (* Brahms pushes carry exactly the sender's identifier (§4.3: "limit
         pushed IDs to a peer's own ID").  A multi-identifier push — the
         generic adversary payload — is therefore parsed per protocol
         syntax as a single push from its sender; the extra payload is
         ignored. *)
      ignore ids;
      t.pending_push <- from :: t.pending_push;
      feed_sampler t from
  | Message.Pull_reply ids ->
      Obs.rtt_finish t.rtt ~peer:(Node_id.to_int from);
      t.pending_pull <- ids :: t.pending_pull;
      feed_samplers t ids
  (* Broadcast frames are the lib/gossip layer's; samplers ignore them. *)
  | Message.Gossip _ | Message.Ihave _ | Message.Iwant _ | Message.Graft
  | Message.Prune ->
      ()

let sample_tick t =
  let l = Array.length t.seeds in
  let samples = ref [] in
  for _ = 1 to t.config.Brahms_config.k do
    let i = t.next_reset in
    t.next_reset <- (t.next_reset + 1) mod l;
    let h = t.holders.(i) in
    if h >= 0 then begin
      samples := Node_id.of_int h :: !samples;
      Obs.Counter.incr t.c_samples
    end;
    t.seeds.(i) <- Rank.fresh t.rng;
    t.holders.(i) <- -1;
    t.best_ranks.(i) <- max_int;
    Obs.Counter.incr t.c_slot_resets
  done;
  List.rev !samples

let view t = t.view

let sampler ?config ?obs () : Rps.maker =
  let scratch = fresh_scratch () in
  fun ~id ~bootstrap ~rng ~send ->
    let t = make ~scratch ?config ?obs ~id ~bootstrap ~rng ~send () in
    {
      Rps.protocol = "brahms";
      node = id;
      on_message = (fun ~from msg -> on_message t ~from msg);
      on_round = (fun () -> on_round t);
      sample_tick = (fun () -> sample_tick t);
      current_view = (fun () -> view t);
    }
