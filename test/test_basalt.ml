(* Tests for basalt.core: config, slots, the Basalt algorithm, streams. *)

open Basalt_core
module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message
module Rank = Basalt_hashing.Rank

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let id = Node_id.of_int
let rng () = Basalt_prng.Rng.create ~seed:1234

(* A node driven the way programs drive it: through its [Rps.t]. *)
let on_round t = (Basalt.to_rps t).Basalt_proto.Rps.on_round ()

let on_message t ~from msg =
  (Basalt.to_rps t).Basalt_proto.Rps.on_message ~from msg

let count obs name = Basalt_obs.Obs.Counter.value (Basalt_obs.Obs.counter obs name)

(* --- Config --- *)

let config_defaults () =
  let c = Config.default in
  check_int "v" 160 c.Config.v;
  check_int "k = v/2" 80 c.Config.k;
  Alcotest.(check (float 1e-9)) "tau" 1.0 c.Config.tau;
  Alcotest.(check (float 1e-9)) "rho" 1.0 c.Config.rho

let config_validation () =
  let expect msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  expect "Config.make: v must be positive" (fun () ->
      ignore (Config.make ~v:0 ()));
  expect "Config.make: k must be in [1, v]" (fun () ->
      ignore (Config.make ~v:10 ~k:11 ()));
  expect "Config.make: k must be in [1, v]" (fun () ->
      ignore (Config.make ~v:10 ~k:0 ()));
  expect "Config.make: tau must be positive" (fun () ->
      ignore (Config.make ~tau:0.0 ()));
  expect "Config.make: rho must be positive" (fun () ->
      ignore (Config.make ~rho:(-1.0) ()));
  expect "Config.make: tau must be positive" (fun () ->
      ignore (Config.make ~tau:Float.nan ()));
  expect "Config.make: rho must be positive" (fun () ->
      ignore (Config.make ~rho:Float.nan ()))

let config_intervals () =
  let c = Config.make ~v:100 ~k:50 ~rho:2.0 () in
  Alcotest.(check (float 1e-9)) "refresh = k/rho" 25.0 (Config.refresh_interval c)

(* Eq. (16)'s discriminant for a config's view size and sampling rate:
   the model of [Basalt_analysis.Model] finds a stable point for the
   paper's base view, none for a tiny one. *)
let config_equilibrium () =
  let exists (c : Config.t) =
    Basalt_analysis.Model.equilibria
      (Basalt_analysis.Model.env ~n:10_000 ~f:0.1 ~v:c.Config.v
         ~rho:c.Config.rho ())
    <> None
  in
  check_bool "paper base has equilibrium" true (exists (Config.make ~v:160 ()));
  check_bool "tiny view has none" false (exists (Config.make ~v:10 ()))

(* --- Slot kernel ---

   One slot of the stubborn chaotic search is [Rank.offer_slots] over
   one-element slot arrays; a [max_since] below the stamp ranks every
   candidate, as Brahms's samplers do. *)

type slot = {
  backend : Rank.backend;
  seed : int;
  best_ranks : int array;  (* [| max_int |] when empty *)
  holders : int array;  (* [| -1 |] when empty *)
}

let slot_create ?(backend = Rank.Cheap) r =
  { backend; seed = Rank.fresh r; best_ranks = [| max_int |]; holders = [| -1 |] }

(* Offers [ids] as one batch; returns the number of ranks evaluated. *)
let slot_offer_batch s ids =
  let raw = Array.of_list ids in
  let len = Array.length raw in
  Rank.offer_slots s.backend ~seeds:[| s.seed |] ~stamps:[| 0 |] ~raw
    ~dig:(Array.map Rank.digest raw) ~since:[||] ~max_since:(-1) ~len
    ~best_ranks:s.best_ranks ~holders:s.holders

(* Offers one id; returns whether the slot changed. *)
let slot_offer s i =
  let holder = s.holders.(0) and best = s.best_ranks.(0) in
  ignore (slot_offer_batch s [ i ]);
  not (Int.equal holder s.holders.(0) && Int.equal best s.best_ranks.(0))

let slot_peer s = if s.holders.(0) < 0 then None else Some s.holders.(0)

let slot_empty () =
  let s = slot_create (rng ()) in
  check_int "an empty batch evaluates nothing" 0 (slot_offer_batch s []);
  check_bool "stays empty" true (slot_peer s = None);
  check_int "no rank" max_int s.best_ranks.(0)

let slot_offer_fills () =
  let s = slot_create (rng ()) in
  check_bool "first offer accepted" true (slot_offer s 3);
  check_bool "filled" true (slot_peer s = Some 3)

let slot_keeps_minimum () =
  (* Offered one at a time or as one batch, the slot ends up holding the
     argmin of the rank function over all offered ids. *)
  let one_by_one = slot_create (rng ()) and batched = slot_create (rng ()) in
  for i = 0 to 99 do
    ignore (slot_offer one_by_one i)
  done;
  check_int "one rank per candidate" 100
    (slot_offer_batch batched (List.init 100 Fun.id));
  let seed = one_by_one.seed in
  let best = ref 0 in
  for i = 1 to 99 do
    if Rank.rank Rank.Cheap seed i < Rank.rank Rank.Cheap seed !best then
      best := i
  done;
  check_bool "holds global argmin" true (slot_peer one_by_one = Some !best);
  check_bool "batched holds it too" true (slot_peer batched = Some !best)

let slot_rejects_worse () =
  let s = slot_create (rng ()) in
  ignore (slot_offer_batch s (List.init 100 Fun.id));
  let held = slot_peer s in
  (* Re-offering everything cannot change the held peer. *)
  let changed = ref false in
  for i = 0 to 99 do
    if slot_offer s i then changed := true
  done;
  check_bool "idempotent" false !changed;
  check_bool "same peer" true (slot_peer s = held)

let slot_reset () =
  (* A reset slot has [holders.(0) < 0]: the kernel then installs the
     next candidate whatever its rank, even against a best rank that was
     left at 0, below every rank. *)
  let s = slot_create (rng ()) in
  ignore (slot_offer_batch s (List.init 50 Fun.id));
  s.holders.(0) <- -1;
  s.best_ranks.(0) <- 0;
  check_bool "cleared slot accepts" true (slot_offer s 77);
  check_bool "holds it" true (slot_peer s = Some 77)

let slot_offer_prepared_agrees () =
  (* The best rank the kernel writes back is the holder's true rank, for
     every backend. *)
  let r = rng () in
  List.iter
    (fun backend ->
      let s = slot_create ~backend r in
      ignore (slot_offer_batch s (List.init 50 Fun.id));
      match slot_peer s with
      | Some p ->
          check_int "cached rank is the true rank" s.best_ranks.(0)
            (Rank.rank backend s.seed p)
      | None -> Alcotest.fail "slot should be filled")
    [
      Rank.Cheap;
      Rank.Siphash (Basalt_hashing.Siphash.key_of_ints 1L 2L);
      Rank.Prefix_diverse { prefix_of = (fun id -> id / 8) };
    ]

(* --- Basalt --- *)

let capture_send () =
  let sent = ref [] in
  let send ~dst msg = sent := (dst, msg) :: !sent in
  (sent, send)

let make_basalt ?(v = 8) ?(k = 2) ?(bootstrap = Array.init 5 (fun i -> id (i + 1)))
    () =
  let _, send = capture_send () in
  Basalt.create
    ~config:(Config.make ~v ~k ())
    ~id:(id 0) ~bootstrap ~rng:(rng ()) ~send ()

let basalt_bootstrap_fills_view () =
  let t = make_basalt () in
  let view = Basalt.view t in
  check_int "all slots filled" 8 (Array.length view);
  Array.iter
    (fun p ->
      check_bool "view entry from bootstrap" true
        (Node_id.to_int p >= 1 && Node_id.to_int p <= 5))
    view

let basalt_empty_bootstrap () =
  let sent, send = capture_send () in
  let t =
    Basalt.create ~config:(Config.make ~v:8 ~k:2 ()) ~id:(id 0)
      ~bootstrap:[||] ~rng:(rng ()) ~send ()
  in
  check_int "empty view" 0 (Array.length (Basalt.view t));
  (* on_round with empty view must not crash, and finds no peer to
     send to *)
  on_round t;
  check_int "no peer" 0 (List.length !sent)

let basalt_excludes_self () =
  let t = make_basalt ~bootstrap:[| id 0; id 0; id 3 |] () in
  Array.iter
    (fun p -> check_bool "self never in view" false (Node_id.equal p (id 0)))
    (Basalt.view t)

let basalt_update_sample_converges () =
  let t = make_basalt ~v:16 () in
  Basalt.update_sample t (Array.init 200 id);
  (* Every slot must now hold the argmin over all non-self ids. *)
  Array.iteri
    (fun _ slot_peer ->
      match slot_peer with
      | Some _ -> ()
      | None -> Alcotest.fail "slot empty after mass update")
    (Basalt.view_slots t);
  (* Feeding again changes nothing (stubbornness). *)
  let before = Basalt.view t in
  Basalt.update_sample t (Array.init 200 id);
  Alcotest.(check (array int))
    "stubborn"
    (Array.map Node_id.to_int before)
    (Array.map Node_id.to_int (Basalt.view t))

let basalt_select_peer_member () =
  let sent, send = capture_send () in
  let t =
    Basalt.create ~config:(Config.make ~v:8 ~k:2 ()) ~id:(id 0)
      ~bootstrap:(Array.init 5 (fun i -> id (i + 1)))
      ~rng:(rng ()) ~send ()
  in
  on_round t;
  check_int "a peer for the pull and one for the push" 2 (List.length !sent);
  List.iter
    (fun (p, _) ->
      check_bool "selected from view" true (Array.mem p (Basalt.view t)))
    !sent

let basalt_on_round_sends () =
  let sent, send = capture_send () in
  let t =
    Basalt.create
      ~config:(Config.make ~v:8 ~k:2 ())
      ~id:(id 0)
      ~bootstrap:(Array.init 5 (fun i -> id (i + 1)))
      ~rng:(rng ()) ~send ()
  in
  on_round t;
  check_int "two messages per round" 2 (List.length !sent);
  let kinds = List.map (fun (_, m) -> Message.kind m) !sent in
  check_bool "one push" true (List.mem "push" kinds);
  check_bool "one pull" true (List.mem "pull" kinds)

let basalt_pull_answered () =
  let sent, send = capture_send () in
  let t =
    Basalt.create
      ~config:(Config.make ~v:4 ())
      ~id:(id 0)
      ~bootstrap:[| id 1; id 2 |]
      ~rng:(rng ()) ~send ()
  in
  on_message t ~from:(id 9) Message.Pull_request;
  match !sent with
  | [ (dst, Message.Pull_reply view) ] ->
      check_int "reply to requester" 9 (Node_id.to_int dst);
      check_bool "reply carries view" true (Array.length view > 0)
  | _ -> Alcotest.fail "expected exactly one pull reply"

let basalt_push_includes_sender () =
  let t = make_basalt ~v:64 ~bootstrap:[| id 1 |] () in
  (* A push from node 7 carrying nothing new: sender itself must be
     considered (Alg. 1 line 13). *)
  on_message t ~from:(id 7) (Message.Push [||]);
  check_bool "sender entered some slot" true
    (Array.mem (id 7) (Basalt.view t))

let basalt_sample_tick_emits () =
  let obs = Basalt_obs.Obs.create () in
  let t =
    Basalt.create ~config:(Config.make ~v:8 ~k:3 ()) ~obs ~id:(id 0)
      ~bootstrap:(Array.init 5 (fun i -> id (i + 1)))
      ~rng:(rng ()) ~send:(fun ~dst:_ _ -> ()) ()
  in
  let samples = Basalt.sample_tick t in
  check_int "k samples when slots filled" 3 (List.length samples);
  check_int "counter" 3 (count obs "basalt.samples_emitted");
  (* After the tick the view is still full: line 19 re-offered the
     snapshot to the reset slots. *)
  check_int "view refilled" 8 (Array.length (Basalt.view t))

let basalt_sample_tick_round_robin () =
  let t = make_basalt ~v:4 ~k:4 () in
  (* k = v: every slot sampled exactly once per tick. *)
  let s1 = Basalt.sample_tick t in
  check_int "v samples" 4 (List.length s1);
  let s2 = Basalt.sample_tick t in
  check_int "again v samples" 4 (List.length s2)

let basalt_sample_tick_empty_slots () =
  let t = make_basalt ~v:4 ~k:2 ~bootstrap:[||] () in
  check_bool "no samples from empty view" true (Basalt.sample_tick t = [])

let basalt_sampler_interface () =
  let maker = Basalt.sampler ~config:(Config.make ~v:8 ()) () in
  let sent = ref 0 in
  let s =
    maker ~id:(id 0)
      ~bootstrap:(Array.init 4 (fun i -> id (i + 1)))
      ~rng:(rng ())
      ~send:(fun ~dst:_ _ -> incr sent)
  in
  Alcotest.(check string) "protocol name" "basalt" s.Basalt_proto.Rps.protocol;
  s.Basalt_proto.Rps.on_round ();
  check_int "round sends" 2 !sent;
  check_bool "view non-empty" true
    (Array.length (s.Basalt_proto.Rps.current_view ()) > 0)

(* Stubbornness against flooding: a slot can only be displaced by an id
   that genuinely ranks lower, so repeated floods of the SAME malicious
   ids cannot increase their representation (the paper's core claim). *)
let basalt_flood_resistance () =
  let t = make_basalt ~v:64 ~bootstrap:(Array.init 50 (fun i -> id (i + 1))) () in
  let flood = Array.init 10 (fun i -> id (1000 + i)) in
  Basalt.update_sample t flood;
  let count_flood () =
    List.length
      (List.filter (fun p -> Node_id.to_int p >= 1000) (Array.to_list (Basalt.view t)))
  in
  let after_once = count_flood () in
  for _ = 1 to 100 do
    Basalt.update_sample t flood
  done;
  check_int "flooding again gains nothing" after_once (count_flood ())

(* --- Dead-peer eviction --- *)

let eviction_config = Config.make ~v:8 ~k:2 ~evict_after_rounds:2 ()

let eviction_validation () =
  Alcotest.check_raises "non-positive limit"
    (Invalid_argument "Config.make: evict_after_rounds must be positive")
    (fun () -> ignore (Config.make ~evict_after_rounds:0 ()))

let eviction_sheds_silent_peers () =
  let _, send = capture_send () in
  let obs = Basalt_obs.Obs.create () in
  let t =
    Basalt.create ~config:eviction_config ~obs ~id:(id 0)
      ~bootstrap:[| id 1; id 2; id 3 |]
      ~rng:(rng ()) ~send ()
  in
  (* Nobody ever answers: after enough rounds every pulled peer gets
     evicted and, since no new candidates arrive, the view drains. *)
  for _ = 1 to 60 do
    on_round t
  done;
  check_bool "evictions happened" true (count obs "basalt.evictions" > 0);
  check_int "view fully drained" 0 (Array.length (Basalt.view t))

let eviction_spares_responsive_peers () =
  let t_ref = ref None in
  (* Peers answer every pull instantly. *)
  let send ~dst msg =
    match (msg, !t_ref) with
    | Basalt_proto.Message.Pull_request, Some t ->
        on_message t ~from:dst (Basalt_proto.Message.Push [| dst |])
    | _ -> ()
  in
  let obs = Basalt_obs.Obs.create () in
  let t =
    Basalt.create ~config:eviction_config ~obs ~id:(id 0)
      ~bootstrap:[| id 1; id 2; id 3 |]
      ~rng:(rng ()) ~send ()
  in
  t_ref := Some t;
  for _ = 1 to 60 do
    on_round t
  done;
  check_int "no evictions for live peers" 0 (count obs "basalt.evictions");
  check_bool "view retained" true (Array.length (Basalt.view t) > 0)

let eviction_disabled_by_default () =
  let _, send = capture_send () in
  let obs = Basalt_obs.Obs.create () in
  let t =
    Basalt.create ~obs
      ~config:(Config.make ~v:8 ~k:2 ())
      ~id:(id 0)
      ~bootstrap:[| id 1 |]
      ~rng:(rng ()) ~send ()
  in
  for _ = 1 to 60 do
    on_round t
  done;
  check_int "no evictions" 0 (count obs "basalt.evictions");
  check_bool "silent peers kept (stubbornness)" true
    (Array.length (Basalt.view t) > 0)

let eviction_order_is_deterministic () =
  (* Regression: a mass eviction used to process peers in [Hashtbl.fold]
     order, which depends on probe *insertion* order; since every slot
     reset consumes PRNG draws, two nodes with identical state but
     different probe histories diverged.  Eviction must be a function of
     the probe *set*, not its insertion order. *)
  let node obs =
    let _, send = capture_send () in
    Basalt.create ~config:eviction_config ~obs ~id:(id 0)
      ~bootstrap:(Array.init 20 (fun i -> id (i + 1)))
      ~rng:(rng ()) ~send ()
  in
  let peers = List.init 12 (fun i -> i + 1) in
  let run order =
    let obs = Basalt_obs.Obs.create () in
    let t = node obs in
    List.iter (fun p -> Basalt.record_probe t (id p)) order;
    (* Three silent rounds push every probe past the limit of 2. *)
    for _ = 1 to 3 do
      on_round t
    done;
    (t, count obs "basalt.evictions")
  in
  let asc, asc_evictions = run peers in
  let desc, desc_evictions = run (List.rev peers) in
  check_bool "evictions fired" true (asc_evictions > 0);
  check_int "same eviction count" asc_evictions desc_evictions;
  Alcotest.(check (array int))
    "identical views regardless of probe insertion order"
    (Array.map Node_id.to_int (Basalt.view asc))
    (Array.map Node_id.to_int (Basalt.view desc))

let probe_cleared_on_any_traffic () =
  (* Any message from a probed peer — here a bare PULL — must clear its
     pending probe, sparing it from the next eviction pass. *)
  let _, send = capture_send () in
  let t =
    Basalt.create
      ~config:(Config.make ~v:8 ~k:2 ~evict_after_rounds:100 ())
      ~id:(id 0)
      ~bootstrap:[| id 1; id 2; id 3 |]
      ~rng:(rng ()) ~send ()
  in
  Basalt.record_probe t (id 1);
  Basalt.record_probe t (id 2);
  on_round t;
  on_message t ~from:(id 1) Message.Pull_request;
  Basalt.run_eviction t ~limit:0;
  let view = Array.map Node_id.to_int (Basalt.view t) in
  check_bool "unanswered probe evicted" false (Array.mem 2 view);
  check_bool "answering peer survives" true (Array.mem 1 view)

let probe_recorded_before_send () =
  (* The probe is registered before the PULL leaves the node, so even a
     same-instant reply finds (and clears) it — no lost-wakeup window. *)
  let t_ref = ref None in
  let probe_was_pending = ref false in
  let send ~dst msg =
    match (msg, !t_ref) with
    | Basalt_proto.Message.Pull_request, Some t ->
        (* Evicting with limit -1 expires every pending probe, including
           one recorded in the current round: the pulled peer vanishes
           from the view exactly when its probe was already registered. *)
        let before = Array.mem dst (Basalt.view t) in
        Basalt.run_eviction t ~limit:(-1);
        let after = Array.mem dst (Basalt.view t) in
        if before && not after then probe_was_pending := true
    | _ -> ()
  in
  let t =
    Basalt.create ~config:eviction_config ~id:(id 0)
      ~bootstrap:[| id 1; id 2; id 3 |]
      ~rng:(rng ()) ~send ()
  in
  t_ref := Some t;
  on_round t;
  check_bool "probe visible at send time" true !probe_was_pending

let eviction_resets_slots_and_reoffers () =
  let _, send = capture_send () in
  let obs = Basalt_obs.Obs.create () in
  let t =
    Basalt.create ~obs
      ~config:(Config.make ~v:8 ~k:2 ~evict_after_rounds:100 ())
      ~id:(id 0)
      ~bootstrap:[| id 1; id 2 |]
      ~rng:(rng ()) ~send ()
  in
  let held_by_victim =
    Array.fold_left
      (fun acc slot -> if slot = Some (id 2) then acc + 1 else acc)
      0 (Basalt.view_slots t)
  in
  check_bool "victim held some slots" true (held_by_victim > 0);
  Basalt.record_probe t (id 2);
  on_round t;
  Basalt.run_eviction t ~limit:0;
  check_int "one reset per held slot" held_by_victim (count obs "basalt.evictions");
  let view = Array.map Node_id.to_int (Basalt.view t) in
  check_bool "victim gone" false (Array.mem 2 view);
  (* The pre-eviction view minus the victim was re-offered, so the freed
     slots converge back to the survivor instead of staying empty. *)
  check_int "every slot refilled from the snapshot" 8 (Array.length view);
  check_bool "survivor everywhere" true (Array.for_all (Int.equal 1) view)

(* --- Per-node footprint --- *)

module Obs = Basalt_obs.Obs

(* Words one node of a 200-node run retains (v = 160, a distinct
   200-id bootstrap from 3,000 ids and the id bound 3,000, as [Runner]
   makes them, disabled telemetry): the seen-cache's clock tags for
   every id below the bound (2 bits per id at k = v/2, 95 words), its
   four slot int arrays (seeds, holders, best ranks, stamps: 4 x 161),
   its PRNG, record and sampler closures — 821 words measured (1,104
   with one-byte tags); the budget is about that plus 5 %.  The batch
   scratch and the RTT tracker are shared, so they are not per node; a
   node that owned them would carry another 603 + 1446 words. *)
let words_per_node_budget = 864

let basalt_per_node_footprint () =
  let config = Config.make ~v:160 ~k:80 () in
  let r = Basalt_prng.Rng.create ~seed:42 in
  let maker = Basalt.sampler ~config ~obs:Obs.disabled ~id_bound:3000 () in
  let send ~dst:_ _ = () in
  let nodes =
    Array.init 200 (fun i ->
        let bootstrap =
          Basalt_prng.Rng.sample_without_replacement r ~k:200 (Array.init 3000 id)
        in
        maker ~id:(id i) ~bootstrap ~rng:r ~send)
  in
  let per_node = Obj.reachable_words (Obj.repr nodes) / Array.length nodes in
  if per_node > words_per_node_budget then
    Alcotest.failf "%d words per node, over the budget of %d" per_node
      words_per_node_budget

let disabled_rtt_is_shared () =
  let a = Obs.rtt Obs.disabled ~name:"basalt.pull" in
  let b = Obs.rtt Obs.disabled ~name:"brahms.pull" in
  check_bool "one tracker for every caller" true (a == b);
  let before = Gc.allocated_bytes () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Obs.rtt Obs.disabled ~name:"basalt.pull"))
  done;
  let allocated = Gc.allocated_bytes () -. before in
  (* [Gc.allocated_bytes] boxes its own float result: a few words. *)
  check_bool
    (Printf.sprintf "100 trackers allocate nothing (%.0f bytes)" allocated)
    true (allocated < 256.0);
  Obs.rtt_start a ~node:0 ~peer:1;
  check_int "nothing is ever recorded in it" 0 (Obs.rtt_pending b)

(* Nodes of one [factory] share their [update_sample] scratch; nodes
   made by [create] each own one.  Interleaving the shared nodes' calls,
   with batches that grow the scratch midway, must leave every view and
   every slot rank exactly as the private nodes have them. *)
let shared_scratch_matches_private () =
  let config = Config.make ~v:32 ~k:8 () in
  let send ~dst:_ _ = () in
  let boot i = Array.init (10 + (7 * i)) (fun j -> id (1 + j + (50 * i))) in
  let seeded i = Basalt_prng.Rng.create ~seed:(100 + i) in
  let make = Basalt.factory ~config () in
  let shared =
    Array.init 4 (fun i ->
        make ~id:(id (10_000 + i)) ~bootstrap:(boot i) ~rng:(seeded i) ~send)
  in
  let own =
    Array.init 4 (fun i ->
        Basalt.create ~config ~id:(id (10_000 + i)) ~bootstrap:(boot i)
          ~rng:(seeded i) ~send ())
  in
  let r = Basalt_prng.Rng.create ~seed:7 in
  for step = 1 to 400 do
    let i = Basalt_prng.Rng.int r 4 in
    let len = 1 + Basalt_prng.Rng.int r (if step < 200 then 20 else 300) in
    let batch = Array.init len (fun _ -> id (Basalt_prng.Rng.int r 5000)) in
    Basalt.update_sample shared.(i) batch;
    Basalt.update_sample own.(i) batch;
    if step mod 50 = 0 then begin
      ignore (Basalt.sample_tick shared.(i));
      ignore (Basalt.sample_tick own.(i))
    end
  done;
  Array.iteri
    (fun i a ->
      let b = own.(i) in
      check_bool
        (Printf.sprintf "node %d views" i)
        true
        (Basalt.view_slots a = Basalt.view_slots b);
      check_bool
        (Printf.sprintf "node %d slot ranks" i)
        true
        (Basalt.slot_ranks a = Basalt.slot_ranks b))
    shared

(* A node that keeps pulling silent peers must not keep their pulls
   pending forever: evicting a peer abandons its pull, so over an
   enabled registry the RTT tracker holds only the pulls of the last
   few rounds however many peers went silent. *)
let evicted_pulls_leave_rtt_tracker () =
  let limit = 2 in
  let t =
    Basalt.create
      ~config:(Config.make ~v:8 ~k:2 ~evict_after_rounds:limit ())
      ~obs:(Obs.create ()) ~id:(id 0)
      ~bootstrap:(Array.init 8 (fun i -> id (i + 1)))
      ~rng:(rng ())
      ~send:(fun ~dst:_ _ -> ())
      ()
  in
  let most = ref 0 in
  for round = 1 to 500 do
    (* A fresh peer announces itself once, then never answers. *)
    let fresh = id (1000 + round) in
    on_message t ~from:fresh (Message.Push_id fresh);
    on_round t;
    most := Int.max !most (Basalt.pending_pulls t)
  done;
  check_bool "pulls were tracked" true (!most > 0);
  check_bool
    (Printf.sprintf "pending pulls bounded (peak %d)" !most)
    true
    (!most <= limit + 2)

(* --- Sample_stream --- *)

let stream_basics () =
  let s = Sample_stream.create ~capacity:3 in
  check_int "empty" 0 (Sample_stream.retained s);
  Sample_stream.push_list s [ id 1; id 2 ];
  check_int "two retained" 2 (Sample_stream.retained s);
  check_int "total" 2 (Sample_stream.total s)

let stream_eviction () =
  let s = Sample_stream.create ~capacity:3 in
  Sample_stream.push_list s [ id 1; id 2; id 3; id 4 ];
  check_int "capped" 3 (Sample_stream.retained s);
  check_int "total keeps counting" 4 (Sample_stream.total s);
  Alcotest.(check (list int))
    "newest first, oldest evicted" [ 4; 3; 2 ]
    (List.map Node_id.to_int (Sample_stream.recent s 5))

let stream_proportion () =
  let s = Sample_stream.create ~capacity:10 in
  Sample_stream.push_list s [ id 1; id 2; id 3; id 4 ];
  Alcotest.(check (float 1e-9)) "proportion" 0.5
    (Sample_stream.proportion (fun x -> Node_id.to_int x mod 2 = 0) s);
  Alcotest.(check (float 1e-9)) "empty stream" 0.0
    (Sample_stream.proportion (fun _ -> true) (Sample_stream.create ~capacity:4))

let stream_iter_order () =
  let s = Sample_stream.create ~capacity:3 in
  Sample_stream.push_list s [ id 1; id 2; id 3; id 4 ];
  let seen = ref [] in
  Sample_stream.iter (fun x -> seen := Node_id.to_int x :: !seen) s;
  Alcotest.(check (list int)) "oldest first" [ 4; 3; 2 ] !seen

let stream_draw () =
  let s = Sample_stream.create ~capacity:8 in
  check_int "draw from empty" 0
    (Array.length (Sample_stream.draw s (rng ()) ~k:5));
  Sample_stream.push_list s [ id 1; id 2; id 3 ];
  let d = Sample_stream.draw s (rng ()) ~k:10 in
  check_int "draws k with replacement" 10 (Array.length d);
  Array.iter
    (fun x ->
      check_bool "drawn from retained" true
        (List.mem (Node_id.to_int x) [ 1; 2; 3 ]))
    d

let stream_invalid () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Sample_stream.create: capacity <= 0") (fun () ->
      ignore (Sample_stream.create ~capacity:0))

module Gen = QCheck2.Gen
module Test = QCheck2.Test
module Print = QCheck2.Print

(* Model-based test: the ring buffer must behave exactly like an
   unbounded list truncated to the last [capacity] elements. *)
let prop_stream_model =
  Test.make ~name:"sample stream matches list reference" ~count:300
    ~print:(Print.pair Print.int (Print.list Print.int))
    (Gen.pair (Gen.int_range 1 8)
       (Gen.list_size (Gen.int_bound 40) (Gen.int_bound 100)))
    (fun (capacity, pushes) ->
      let s = Sample_stream.create ~capacity in
      let reference = ref [] in
      List.iter
        (fun x ->
          Sample_stream.push_list s [ Node_id.of_int x ];
          reference := x :: !reference)
        pushes;
      let expected_window =
        List.filteri (fun i _ -> i < capacity) !reference
      in
      let got =
        List.map Node_id.to_int (Sample_stream.recent s capacity)
      in
      got = expected_window
      && Sample_stream.total s = List.length pushes
      && Sample_stream.retained s = List.length expected_window)

(* Model check of the growing buffer: after every push, a stream
   agrees with a list of its last [capacity] pushes, newest first —
   through each doubling from 8, the last step to [capacity] and past
   the wrap — on every reader.  [draw] takes the same PRNG seed on both
   sides.  A case is (capacity, pushes, seed of the pushed ids). *)
let prop_stream_growth_model =
  Test.make ~name:"growing sample stream matches list model" ~count:100
    ~print:(Print.triple Print.int Print.int Print.int)
    Gen.(
      bind (oneofl [ 1; 7; 8; 200; 1024 ]) (fun capacity ->
          triple (return capacity)
            (int_range 0 (capacity + (capacity / 2) + 9))
            (int_bound 1_000_000)))
    (fun (capacity, pushes, seed) ->
      let s = Sample_stream.create ~capacity in
      let ids = Basalt_prng.Rng.create ~seed in
      let model = ref [] in
      let even x = x mod 2 = 0 in
      let agrees step =
        let m = !model in
        let retained = List.length m in
        let iterated = ref [] in
        Sample_stream.iter
          (fun x -> iterated := Node_id.to_int x :: !iterated)
          s;
        let proportion =
          if retained = 0 then 0.0
          else
            float_of_int (List.length (List.filter even m))
            /. float_of_int retained
        in
        let drawn =
          Array.map Node_id.to_int
            (Sample_stream.draw s (Basalt_prng.Rng.create ~seed:step) ~k:6)
        in
        let model_drawn =
          let r = Basalt_prng.Rng.create ~seed:step in
          if retained = 0 then [||]
          else
            Array.init 6 (fun _ -> List.nth m (Basalt_prng.Rng.int r retained))
        in
        Sample_stream.total s = step
        && Sample_stream.retained s = retained
        && List.map Node_id.to_int (Sample_stream.recent s (capacity + 1)) = m
        && List.map Node_id.to_int (Sample_stream.recent s 3)
           = List.filteri (fun i _ -> i < 3) m
        && !iterated = m
        && Float.equal
             (Sample_stream.proportion (fun x -> even (Node_id.to_int x)) s)
             proportion
        && drawn = model_drawn
      in
      let ok = ref (agrees 0) and step = ref 0 in
      while !ok && !step < pushes do
        let x = Basalt_prng.Rng.int ids 50 in
        Sample_stream.push_list s [ Node_id.of_int x ];
        model := List.filteri (fun i _ -> i < capacity) (x :: !model);
        incr step;
        ok := agrees !step
      done;
      !ok)

(* A stream holds no buffer until samples arrive, and a full one holds
   no more than the ring [create] used to allocate up front: 200
   entries and a header, plus the six-word record. *)
let stream_words () =
  let words s = Obj.reachable_words (Obj.repr s) in
  let s = Sample_stream.create ~capacity:200 in
  let fresh = words s in
  if fresh > 10 then Alcotest.failf "fresh stream keeps %d words" fresh;
  for i = 1 to 250 do
    Sample_stream.push_list s [ id i ]
  done;
  let full = words s in
  if full > 207 then Alcotest.failf "full stream keeps %d words" full

let seed_and_ids =
  Gen.pair (Gen.int_bound 10_000)
    (Gen.list_size (Gen.int_range 1 30) (Gen.int_bound 100))

let print_seed_ids = Print.pair Print.int (Print.list Print.int)

let make_node ?(v = 8) seed =
  let send ~dst:_ _ = () in
  Basalt.create
    ~config:(Config.make ~v ())
    ~id:(Node_id.of_int 0) ~bootstrap:[||]
    ~rng:(Basalt_prng.Rng.create ~seed)
    ~send ()

let prop_view_subset_of_fed =
  Test.make ~name:"view is a subset of fed identifiers" ~count:200
    ~print:print_seed_ids seed_and_ids
    (fun (seed, ids) ->
      let t = make_node seed in
      let fed = Array.of_list (List.map (fun i -> Node_id.of_int (i + 1)) ids) in
      Basalt.update_sample t fed;
      Array.for_all (fun p -> Array.mem p fed) (Basalt.view t))

(* Differential oracle for the hot path: every slot must hold exactly
   the argmin of its rank function over all offered identifiers (the
   oblivious reference model of Alg. 1 lines 20-23). *)
let prop_slot_argmin =
  Test.make ~name:"slot holds the argmin-rank identifier" ~count:300
    ~print:print_seed_ids seed_and_ids
    (fun (seed, ids) ->
      let s = slot_create (Basalt_prng.Rng.create ~seed) in
      ignore (slot_offer_batch s ids);
      let rank i = Rank.rank s.backend s.seed i in
      let best = List.fold_left (fun acc i -> min acc (rank i)) max_int ids in
      match slot_peer s with
      | Some p -> rank p = best && s.best_ranks.(0) = best
      | None -> false)

(* Feeding a batch is the same as feeding it in two pieces: update_sample
   draws no randomness, so same-seed instances stay comparable. *)
let prop_update_sample_batch_split =
  Test.make ~name:"update_sample batches = sequential feeds" ~count:200
    ~print:(Print.triple Print.int (Print.list Print.int) Print.int)
    (Gen.triple (Gen.int_bound 10_000)
       (Gen.list_size (Gen.int_range 1 30) (Gen.int_bound 100))
       (Gen.int_bound 30))
    (fun (seed, ids, cut) ->
      let cut = cut mod (List.length ids + 1) in
      let all = Array.of_list (List.map (fun i -> Node_id.of_int (i + 1)) ids) in
      let whole = make_node seed in
      Basalt.update_sample whole all;
      let split = make_node seed in
      Basalt.update_sample split (Array.sub all 0 cut);
      Basalt.update_sample split
        (Array.sub all cut (Array.length all - cut));
      Basalt.view whole = Basalt.view split)

(* Eviction safety: a peer that sent us anything within the last [limit]
   rounds can never be evicted — its probe (if any) was cleared by that
   traffic, and any newer probe is younger than [limit].  Ops interleave
   silent protocol rounds with spontaneous traffic from a small peer
   pool; since every identifier ever fed was offered to every slot, the
   view only ever shrinks through eviction, so a recently-heard peer
   missing from the view is exactly an eviction-safety violation. *)
let prop_eviction_spares_recent_peers =
  let limit = 2 in
  let print_ops =
    Print.list (fun op -> if op = 0 then "round" else Printf.sprintf "hear(%d)" op)
  in
  Test.make ~name:"eviction never evicts a peer heard within the limit"
    ~count:200
    ~print:(Print.pair Print.int print_ops)
    (Gen.pair (Gen.int_bound 10_000)
       (Gen.list_size (Gen.int_range 1 60) (Gen.int_bound 6)))
    (fun (seed, ops) ->
      let send ~dst:_ _ = () in
      let t =
        Basalt.create
          ~config:(Config.make ~v:6 ~k:2 ~evict_after_rounds:limit ())
          ~id:(Node_id.of_int 0)
          ~bootstrap:(Array.init 6 (fun i -> Node_id.of_int (i + 1)))
          ~rng:(Basalt_prng.Rng.create ~seed)
          ~send ()
      in
      let last_heard = Hashtbl.create 8 in
      let rounds = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          if op = 0 then begin
            let before = Basalt.view t in
            on_round t;
            incr rounds;
            let after = Basalt.view t in
            let rounds = !rounds in
            Array.iter
              (fun p ->
                match Hashtbl.find_opt last_heard (Node_id.to_int p) with
                | Some heard when rounds - heard <= limit ->
                    if not (Array.exists (Node_id.equal p) after) then
                      ok := false
                | Some _ | None -> ())
              before
          end
          else begin
            let p = Node_id.of_int op in
            on_message t ~from:p (Message.Push_id p);
            Hashtbl.replace last_heard op !rounds
          end)
        ops;
      !ok)

(* Differential rank oracle: a naive reference model of Alg. 1 that
   evaluates one rank per (slot, candidate) pair with no dedup, no
   candidate digests and no seen-cache — exactly the code the batched
   [Basalt.update_sample] replaced.  The model mirrors the node's PRNG
   usage ([create] splits the master stream and draws one seed per slot;
   each [sample_tick] reset draws one more), so a same-seeded node and
   model hold identical slot seeds at every step and must agree on every
   holder and every best rank, bit for bit.  The model also counts the
   evaluations the node's cache is meant to leave, one per (seed,
   candidate) pair — a candidate already offered to a slot since its
   reset is not ranked there again — which must equal the node's
   [basalt.rank_evals]: a seen-cache that loses an entry shows there,
   even though re-ranking a candidate never changes a slot. *)
module Rank_oracle = struct
  type slot = {
    mutable seed : int;
    mutable holder : int option;
    mutable best : int;
    offered : (int, unit) Hashtbl.t;  (* ids offered since the reset *)
  }

  type t = {
    slots : slot array;
    rng : Basalt_prng.Rng.t;
    backend : Rank.backend;
    self : int;
    mutable next_reset : int;
    mutable evals : int;
  }

  let create ~backend ~v ~self ~seed =
    let master = Basalt_prng.Rng.create ~seed in
    let rng = Basalt_prng.Rng.split master in
    let slots =
      Array.init v (fun _ ->
          {
            seed = Rank.fresh rng;
            holder = None;
            best = max_int;
            offered = Hashtbl.create 16;
          })
    in
    { slots; rng; backend; self; next_reset = 0; evals = 0 }

  let offer t ids =
    Array.iter
      (fun id ->
        let id = Node_id.to_int id in
        if id <> t.self then
          Array.iter
            (fun s ->
              if not (Hashtbl.mem s.offered id) then begin
                Hashtbl.replace s.offered id ();
                t.evals <- t.evals + 1
              end;
              let r = Rank.rank t.backend s.seed id in
              if s.holder = None || r < s.best then begin
                s.holder <- Some id;
                s.best <- r
              end)
            t.slots)
      ids

  let tick t ~k =
    let snapshot =
      Array.of_list
        (List.filter_map
           (fun s -> Option.map Node_id.of_int s.holder)
           (Array.to_list t.slots))
    in
    for _ = 1 to k do
      let s = t.slots.(t.next_reset) in
      t.next_reset <- (t.next_reset + 1) mod Array.length t.slots;
      s.seed <- Rank.fresh t.rng;
      s.holder <- None;
      s.best <- max_int;
      Hashtbl.reset s.offered
    done;
    offer t snapshot

  (* [Basalt]'s eviction of [peer]: reseed, in slot order, every slot
     holding it, then offer the rest of the view. *)
  let evict t peer =
    let snapshot =
      Array.of_list
        (List.filter_map
           (fun s ->
             match s.holder with
             | Some h when h <> peer -> Some (Node_id.of_int h)
             | Some _ | None -> None)
           (Array.to_list t.slots))
    in
    Array.iter
      (fun s ->
        if s.holder = Some peer then begin
          s.seed <- Rank.fresh t.rng;
          s.holder <- None;
          s.best <- max_int;
          Hashtbl.reset s.offered
        end)
      t.slots;
    offer t snapshot

  let holders t = Array.map (fun s -> s.holder) t.slots
  let ranks t =
    Array.map (fun s -> if s.holder = None then None else Some s.best) t.slots
end

let oracle_backends =
  [
    ("cheap", Rank.Cheap);
    ( "siphash",
      Rank.Siphash (Basalt_hashing.Siphash.key_of_ints 0x0706050403020100L 0x0F0E0D0C0B0A0908L) );
    ("prefix-diverse", Rank.Prefix_diverse { prefix_of = (fun id -> id / 8) });
  ]

(* Each op is a candidate batch (possibly empty) optionally followed by a
   sample_tick, and ticks re-seed slots so the batched path's seen-cache
   must discriminate stale generations.  Each case draws its (v, k) so
   that ceil(v/k) lies in the range of one tag width — 1–3 (2-bit
   tags), 4–15 (4-bit) or 16–255 (8-bit) — since the width, the field
   packing and the rebase point all follow from it.  The seen-cache
   keeps ids below the node's id bound as clock tags and the rest in a
   table, so each case draws the bound — 0 (table only), a value
   inside the shape's id range (both stores in one node) or one past
   its maximum (tags only) — for one of these shapes:
   - a small identifier range (<= 12, batches <= 8) forces duplicates
     within and across batches, and id 0 is the node itself;
   - ids below 3,000 (batches <= 300) revisit ids across batches;
   - a wide range (< 10^5, batches <= 300) passes the table's prune
     threshold (16v + 64 entries, 160 at v = 6) unless the bound
     covers it or the view is wide, so ticks sweep the table;
   - 48-bit ids shaped like [Endpoint.to_node_id]'s (an IPv4 address
     above a 16-bit port), the sparse keys of the UDP daemon.  No bound
     that could be allocated covers them, so they run on the table
     only, at bound 0 as on the daemon. *)
let endpoint_id =
  Gen.map2
    (fun (a, b, c) (d, port) ->
      (a lsl 40) lor (b lsl 32) lor (c lsl 24) lor (d lsl 16) lor port)
    (Gen.triple (Gen.oneofl [ 10; 127; 192 ]) (Gen.int_bound 3)
       (Gen.int_bound 255))
    (Gen.pair (Gen.int_bound 255) (Gen.oneofl [ 4001; 4002; 9000; 65535 ]))

let oracle_ops ~max_ops ~max_batch id =
  Gen.list_size (Gen.int_range 1 max_ops)
    (Gen.pair (Gen.list_size (Gen.int_range 0 max_batch) id) Gen.bool)

(* A shape of ids below [max_id + 1] with its drawn id bound. *)
let bounded_ops ~max_ops ~max_batch max_id =
  Gen.pair
    (Gen.oneof
       [ Gen.pure 0; Gen.int_range 1 max_id; Gen.pure (max_id + 1) ])
    (oracle_ops ~max_ops ~max_batch (Gen.int_bound max_id))

(* Shrinking by halves: a failing case of up to 12 ops of 300 ids first
   keeps either half of its ops, then either half of one batch, and only
   then drops single ops, single ids and ticks.  QCheck2's element-wise
   shrinking would re-run the four backends once per id of a 300-id
   batch, which takes minutes. *)
let halves l =
  let h = List.length l / 2 in
  if h = 0 then Seq.empty
  else
    List.to_seq
      [ List.filteri (fun i _ -> i < h) l; List.filteri (fun i _ -> i >= h) l ]

let drop_each l =
  Seq.init (List.length l) (fun j -> List.filteri (fun i _ -> i <> j) l)

let shrink_ops ops =
  let each_op f =
    Seq.concat
      (Seq.init (List.length ops) (fun i ->
           let ids, tick = List.nth ops i in
           Seq.map
             (fun op -> List.mapi (fun j o -> if j = i then op else o) ops)
             (f ids tick)))
  in
  let batches shrink ids tick = Seq.map (fun ids -> (ids, tick)) (shrink ids) in
  List.fold_right Seq.append
    [
      halves ops;
      each_op (batches halves);
      drop_each ops;
      each_op (batches drop_each);
      each_op (fun ids tick ->
          if tick then Seq.return (ids, false) else Seq.empty);
    ]
    Seq.empty

(* A (v, k) whose ceil(v/k) lies in [lo, hi]: k, then v from
   max k ((lo - 1) k + 1) to min (hi k) max_v. *)
let view_shape ~lo ~hi ~max_k ~max_v =
  Gen.bind (Gen.int_range 1 max_k) (fun k ->
      Gen.map
        (fun v -> (v, k))
        (Gen.int_range
           (Int.max k (((lo - 1) * k) + 1))
           (Int.min (hi * k) max_v)))

(* The 8-bit range needs views of up to 255 slots, each of which the
   oracle ranks every candidate against on four backends, so it is drawn
   half as often, and half of its views stay below 41 slots. *)
let view_shapes =
  Gen.frequency
    [
      (2, view_shape ~lo:1 ~hi:3 ~max_k:8 ~max_v:24);
      (2, view_shape ~lo:4 ~hi:15 ~max_k:3 ~max_v:45);
      (1, view_shape ~lo:16 ~hi:40 ~max_k:1 ~max_v:40);
      (1, view_shape ~lo:16 ~hi:255 ~max_k:2 ~max_v:255);
    ]

let oracle_cases =
  let cases =
    Gen.pair
      (Gen.pair (Gen.int_bound 10_000) view_shapes)
      (Gen.oneof
         [
           bounded_ops ~max_ops:10 ~max_batch:8 12;
           bounded_ops ~max_ops:12 ~max_batch:300 2_999;
           bounded_ops ~max_ops:12 ~max_batch:300 99_999;
           Gen.pair (Gen.pure 0)
             (oracle_ops ~max_ops:12 ~max_batch:300 endpoint_id);
         ])
  in
  (* The same draws as [cases]; only the shrinks differ. *)
  Gen.make_primitive
    ~gen:(fun rand -> Gen.generate1 ~rand cases)
    ~shrink:(fun (seed_shape, (id_bound, ops)) ->
      Seq.map (fun ops -> (seed_shape, (id_bound, ops))) (shrink_ops ops))

let prop_update_sample_matches_oracle =
  let print_ops =
    Print.list (Print.pair (Print.list Print.int) Print.bool)
  in
  Test.make ~name:"batched update_sample matches naive rank oracle"
    ~count:250
    ~print:
      (Print.pair
         (Print.pair Print.int (Print.pair Print.int Print.int))
         (Print.pair Print.int print_ops))
    oracle_cases
    (fun ((seed, (v, k)), (id_bound, ops)) ->
      List.for_all
        (fun (_name, backend) ->
          let send ~dst:_ _ = () in
          let obs = Basalt_obs.Obs.create () in
          let evals = Basalt_obs.Obs.counter obs "basalt.rank_evals" in
          let t =
            Basalt.factory
              ~config:(Config.make ~v ~k ~backend ())
              ~obs ~id_bound () ~id:(Node_id.of_int 0) ~bootstrap:[||]
              ~rng:(Basalt_prng.Rng.create ~seed)
              ~send
          in
          let m = Rank_oracle.create ~backend ~v ~self:0 ~seed in
          List.for_all
            (fun (ids, tick) ->
              let batch =
                Array.of_list (List.map Node_id.of_int ids)
              in
              Basalt.update_sample t batch;
              Rank_oracle.offer m batch;
              if tick then begin
                ignore (Basalt.sample_tick t);
                Rank_oracle.tick m ~k
              end;
              let holders =
                Array.map
                  (Option.map Node_id.to_int)
                  (Basalt.view_slots t)
              in
              holders = Rank_oracle.holders m
              && Basalt.slot_ranks t = Rank_oracle.ranks m
              && Basalt_obs.Obs.Counter.value evals = m.Rank_oracle.evals)
            ops)
        oracle_backends)

(* [on_message] offers a [Push] or [Pull_reply]'s ids and then its
   sender, and a [Push_id]'s id, to every slot (Alg. 1 line 13); the
   node stages the sender inside the ids' batch, which must leave the
   holders, ranks and [basalt.rank_evals] of offering [ids] and then
   [[| from |]] on their own, as the oracle does.  Ids are below 8, so
   the sender is often among the ids, 0 is the node itself (as sender
   or as a [Push_id]'s id), and batches may be empty; each message is
   optionally followed by a sample tick, and the id bound puts the
   seen-cache in the table (0) or the tags (8). *)
type msg_op = {
  kind : [ `Push | `Pull_reply | `Push_id ];
  from : int;
  ids : int list;  (* a [Push_id]'s id is [List.hd (ids @ [from])] *)
  tick : bool;
}

let prop_on_message_matches_oracle =
  let op =
    Gen.map
      (fun (kind, from, ids, tick) -> { kind; from; ids; tick })
      (Gen.quad
         (Gen.oneofl [ `Push; `Pull_reply; `Push_id ])
         (Gen.int_bound 7)
         (Gen.list_size (Gen.int_bound 6) (Gen.int_bound 7))
         Gen.bool)
  in
  let print_op o =
    Printf.sprintf "%s from %d [%s]%s"
      (match o.kind with
      | `Push -> "push"
      | `Pull_reply -> "pull_reply"
      | `Push_id -> "push_id")
      o.from
      (String.concat "; " (List.map string_of_int o.ids))
      (if o.tick then " tick" else "")
  in
  Test.make ~name:"on_message matches naive rank oracle" ~count:300
    ~print:Print.(triple int int (list print_op))
    Gen.(
      triple (int_bound 10_000) (oneofl [ 0; 8 ])
        (list_size (int_range 1 12) op))
    (fun (seed, id_bound, ops) ->
      let v = 6 and k = 2 in
      List.for_all
        (fun (_name, backend) ->
          let obs = Basalt_obs.Obs.create () in
          let evals = Basalt_obs.Obs.counter obs "basalt.rank_evals" in
          let t =
            Basalt.factory
              ~config:(Config.make ~v ~k ~backend ())
              ~obs ~id_bound () ~id:(Node_id.of_int 0) ~bootstrap:[||]
              ~rng:(Basalt_prng.Rng.create ~seed)
              ~send:(fun ~dst:_ _ -> ())
          in
          let m = Rank_oracle.create ~backend ~v ~self:0 ~seed in
          List.for_all
            (fun o ->
              let ids = Array.of_list (List.map Node_id.of_int o.ids) in
              let from = Node_id.of_int o.from in
              (match o.kind with
              | `Push_id ->
                  let pid = Node_id.of_int (List.hd (o.ids @ [ o.from ])) in
                  on_message t ~from (Message.Push_id pid);
                  Rank_oracle.offer m [| pid |]
              | (`Push | `Pull_reply) as kind ->
                  on_message t ~from
                    (match kind with
                    | `Push -> Message.Push ids
                    | `Pull_reply -> Message.Pull_reply ids);
                  Rank_oracle.offer m ids;
                  Rank_oracle.offer m [| from |]);
              if o.tick then begin
                ignore (Basalt.sample_tick t);
                Rank_oracle.tick m ~k
              end;
              Array.map (Option.map Node_id.to_int) (Basalt.view_slots t)
              = Rank_oracle.holders m
              && Basalt.slot_ranks t = Rank_oracle.ranks m
              && Basalt_obs.Obs.Counter.value evals = m.Rank_oracle.evals)
            ops)
        oracle_backends)

(* Drives a node and the oracle (same [v], [k], seed) through [ticks]
   rounds, each a batch of 1 to [batch] ids drawn from 1 .. [ids]
   followed by a sample tick and then [evictions] evictions, each of
   the peer that slot 0 then holds, and returns the node's and the oracle's rank
   evaluations once holders and ranks have been checked equal.  The
   node's id bound covers every id, so its seen-cache is the tags
   alone. *)
let run_against_oracle ?(evictions = 0) ~v ~k ~ticks ~batch ~ids () =
  let backend = Rank.Cheap in
  let send ~dst:_ _ = () in
  let obs = Basalt_obs.Obs.create () in
  let evals = Basalt_obs.Obs.counter obs "basalt.rank_evals" in
  let t =
    Basalt.factory
      ~config:(Config.make ~v ~k ~backend ())
      ~obs ~id_bound:(ids + 1) () ~id:(id 0) ~bootstrap:[||]
      ~rng:(Basalt_prng.Rng.create ~seed:7)
      ~send
  in
  let m = Rank_oracle.create ~backend ~v ~self:0 ~seed:7 in
  let r = Basalt_prng.Rng.create ~seed:11 in
  let holders () =
    Array.map (Option.map Node_id.to_int) (Basalt.view_slots t)
  in
  for _ = 1 to ticks do
    let batch =
      Array.init
        (1 + Basalt_prng.Rng.int r batch)
        (fun _ -> id (1 + Basalt_prng.Rng.int r ids))
    in
    Basalt.update_sample t batch;
    Rank_oracle.offer m batch;
    ignore (Basalt.sample_tick t);
    Rank_oracle.tick m ~k;
    for _ = 1 to evictions do
      match (holders ()).(0) with
      | Some peer ->
          Basalt.record_probe t (id peer);
          Basalt.run_eviction t ~limit:(-1);
          Rank_oracle.evict m peer
      | None -> ()
    done
  done;
  check_bool "holders" true (holders () = Rank_oracle.holders m);
  check_bool "ranks" true (Basalt.slot_ranks t = Rank_oracle.ranks m);
  (Basalt_obs.Obs.Counter.value evals, m.Rank_oracle.evals)

(* The clock counts reset bursts, and tags are w bits wide, where w is
   the fewest of 2, 4 or 8 bits with ceil(v/k) <= 2^w - 1; the tags are
   rebased whenever the clock outruns its base by 2^w - 1.  Each case
   crosses many rebases at one width: v = 4, k = 2 (2-bit tags, a
   rebase every other tick) for 5,000 ticks; v = 10, k = 1 (4-bit, gap
   up to 9, a rebase every 6 ticks) for 2,000; v = 40, k = 1 (8-bit,
   gap up to 39, a rebase every 216 ticks) for 1,000.  A few ids
   offered around every tick keep entries live across each rebase: an
   entry from the previous tick still spares the slots drawn before it,
   so a field read one clock off, from a neighbour's bits, or a rebase
   that forgets entries some slot has already ranked, shows in the
   holders, the ranks or [basalt.rank_evals]. *)
let tag_rebases_match_oracle () =
  List.iter
    (fun (v, k, ticks, ids) ->
      let node, oracle =
        run_against_oracle ~v ~k ~ticks ~batch:3 ~ids ()
      in
      check_int (Printf.sprintf "rank_evals at v = %d, k = %d" v k) oracle node)
    [ (4, 2, 5_000, 6); (10, 1, 2_000, 12); (40, 1, 1_000, 60) ]

(* Past ceil(v/k) = 255 the oldest live stamp can lie more than 254
   bursts behind the clock even with 8-bit tags, so a rebase clamps the
   base to [clock - 254] and forgets entries some slots have already
   ranked.  At v = 300 and k = 1 the bursts between clock - 299 and
   clock - 255 are in that window once the clock passes 255: ids
   offered there and not since are ranked again on their next offer.
   Views and ranks must still equal the oracle's; only the evaluation
   count may exceed it, and here it must, or the clamp went
   unexercised.  The count itself is pinned (1,752 over the oracle's
   927,791 at these seeds), so a clamp that forgets more, or a tag that
   overflows at the clamp's edge, shows too. *)
let wide_view_clamp_matches_oracle () =
  let node, oracle =
    run_against_oracle ~v:300 ~k:1 ~ticks:400 ~batch:30 ~ids:2_000 ()
  in
  check_bool
    (Printf.sprintf "rank_evals %d > oracle's %d" node oracle)
    true
    (Int.compare node oracle > 0);
  check_int "rank_evals" 929_543 node

(* An eviction is a burst of its own: it advances the clock, so with
   evictions between sample ticks the gap between the clock and the
   oldest stamp outgrows ceil(v/k) - 1.  At v = 4, k = 2 (2-bit tags,
   exact up to a gap of 2) a slot pair is reset every other tick, and
   one eviction after each tick puts two ticks and two evictions
   between its resets, a gap of 3, so rebases clamp.  Views and ranks
   must equal the oracle's (whose evictions reseed the same slots in
   the same order), and the node's evaluations may only exceed the
   oracle's; they are pinned (28 over the oracle's 6,486), as at the
   wide view. *)
let eviction_clamp_matches_oracle () =
  let node, oracle =
    run_against_oracle ~evictions:1 ~v:4 ~k:2 ~ticks:500 ~batch:3 ~ids:12 ()
  in
  check_bool
    (Printf.sprintf "rank_evals %d >= oracle's %d" node oracle)
    true
    (Int.compare node oracle >= 0);
  check_int "rank_evals" 6_514 node

(* A node made with the run's id bound allocates its tags once: offering
   every id below the bound, one batch at a time (no larger than its
   bootstrap, so the shared scratch does not grow either), leaves its
   reachable words unchanged. *)
let id_bound_sizes_tags_once () =
  let n = 3000 in
  let make = Basalt.factory ~config:(Config.make ~v:16 ~k:8 ()) ~id_bound:n () in
  let t =
    make ~id:(id 0)
      ~bootstrap:(Array.init 8 (fun i -> id (i + 1)))
      ~rng:(rng ()) ~send:(fun ~dst:_ _ -> ())
  in
  let words () = Obj.reachable_words (Obj.repr t) in
  let before = words () in
  for i = 0 to n - 1 do
    Basalt.update_sample t [| id i |]
  done;
  check_int "reachable words" before (words ())

(* A node without an id bound — a daemon node, keyed by endpoints —
   keeps every candidate in its seen-cache's table, so a flood of forged
   ids must not grow it without bound: each tick offers [batch] fresh
   ids, and the tick's prune drops the entries older than every seed
   once the table passes its threshold (16v + 64 entries).  Between
   prunes it holds at most the threshold, one tick's batch and the
   bootstrap.  An entry is a bucket cell (4 words) and a clock cell
   (2 words), and the bucket array has at most one word per entry, so
   the node's growth over its bootstrap-sized self stays within 7 words
   per entry (plus the table's own header words). *)
let forged_id_flood_bounded () =
  let v = 16 and batch = 64 in
  let endpoint i = id ((127 lsl 40) lor (1 lsl 16) lor i) in
  let t =
    Basalt.create
      ~config:(Config.make ~v ~k:8 ())
      ~id:(endpoint 0)
      ~bootstrap:(Array.init batch (fun i -> endpoint (i + 1)))
      ~rng:(rng ()) ~send:(fun ~dst:_ _ -> ()) ()
  in
  let words () = Obj.reachable_words (Obj.repr t) in
  let before = words () in
  for tick = 1 to 200 do
    Basalt.update_sample t
      (Array.init batch (fun i -> endpoint ((tick * batch) + i + 1)));
    ignore (Basalt.sample_tick t)
  done;
  let grown = words () - before in
  let limit = (7 * ((16 * v) + 64 + (2 * batch))) + 16 in
  if grown > limit then
    Alcotest.failf "forged ids grew the node by %d words, over %d" grown limit

(* The node's own identifier stays out of its view no matter how often
   it is offered. *)
let prop_view_excludes_self =
  Test.make ~name:"view never contains self" ~count:200
    ~print:print_seed_ids seed_and_ids
    (fun (seed, ids) ->
      let t = make_node seed in
      (* id 0 is the node itself; feed it alongside everything else. *)
      let fed = Array.of_list (List.map Node_id.of_int (0 :: ids)) in
      Basalt.update_sample t fed;
      not (Array.exists (Node_id.equal (Node_id.of_int 0)) (Basalt.view t)))

let () =
  Alcotest.run "basalt"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick config_defaults;
          Alcotest.test_case "validation" `Quick config_validation;
          Alcotest.test_case "intervals" `Quick config_intervals;
          Alcotest.test_case "equilibrium" `Quick config_equilibrium;
        ] );
      ( "slot",
        [
          Alcotest.test_case "empty" `Quick slot_empty;
          Alcotest.test_case "offer fills" `Quick slot_offer_fills;
          Alcotest.test_case "keeps minimum" `Quick slot_keeps_minimum;
          Alcotest.test_case "rejects worse" `Quick slot_rejects_worse;
          Alcotest.test_case "reset" `Quick slot_reset;
          Alcotest.test_case "prepared agrees" `Quick slot_offer_prepared_agrees;
        ] );
      ( "basalt",
        [
          Alcotest.test_case "bootstrap fills view" `Quick
            basalt_bootstrap_fills_view;
          Alcotest.test_case "empty bootstrap" `Quick basalt_empty_bootstrap;
          Alcotest.test_case "excludes self" `Quick basalt_excludes_self;
          Alcotest.test_case "update_sample converges" `Quick
            basalt_update_sample_converges;
          Alcotest.test_case "select_peer member" `Quick
            basalt_select_peer_member;
          Alcotest.test_case "on_round sends" `Quick basalt_on_round_sends;
          Alcotest.test_case "pull answered" `Quick basalt_pull_answered;
          Alcotest.test_case "push includes sender" `Quick
            basalt_push_includes_sender;
          Alcotest.test_case "sample_tick emits" `Quick basalt_sample_tick_emits;
          Alcotest.test_case "sample_tick round robin" `Quick
            basalt_sample_tick_round_robin;
          Alcotest.test_case "sample_tick empty slots" `Quick
            basalt_sample_tick_empty_slots;
          Alcotest.test_case "sampler interface" `Quick basalt_sampler_interface;
          Alcotest.test_case "flood resistance" `Quick basalt_flood_resistance;
          Alcotest.test_case "eviction validation" `Quick eviction_validation;
          Alcotest.test_case "eviction sheds silent peers" `Quick
            eviction_sheds_silent_peers;
          Alcotest.test_case "eviction spares responsive peers" `Quick
            eviction_spares_responsive_peers;
          Alcotest.test_case "eviction disabled by default" `Quick
            eviction_disabled_by_default;
          Alcotest.test_case "eviction order deterministic" `Quick
            eviction_order_is_deterministic;
          Alcotest.test_case "probe cleared on any traffic" `Quick
            probe_cleared_on_any_traffic;
          Alcotest.test_case "probe recorded before send" `Quick
            probe_recorded_before_send;
          Alcotest.test_case "eviction resets and re-offers" `Quick
            eviction_resets_slots_and_reoffers;
          Alcotest.test_case "evicted pulls leave rtt tracker" `Quick
            evicted_pulls_leave_rtt_tracker;
          Alcotest.test_case "tag rebases match oracle" `Quick
            tag_rebases_match_oracle;
          Alcotest.test_case "wide view clamp matches oracle" `Quick
            wide_view_clamp_matches_oracle;
          Alcotest.test_case "eviction clamp matches oracle" `Quick
            eviction_clamp_matches_oracle;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "per-node words" `Quick basalt_per_node_footprint;
          Alcotest.test_case "disabled rtt is shared" `Quick
            disabled_rtt_is_shared;
          Alcotest.test_case "shared scratch matches private" `Quick
            shared_scratch_matches_private;
          Alcotest.test_case "forged id flood bounded" `Quick
            forged_id_flood_bounded;
          Alcotest.test_case "id bound sizes tags once" `Quick
            id_bound_sizes_tags_once;
          Alcotest.test_case "sample stream words" `Quick stream_words;
        ] );
      ( "sample_stream",
        [
          Alcotest.test_case "basics" `Quick stream_basics;
          Alcotest.test_case "eviction" `Quick stream_eviction;
          Alcotest.test_case "proportion" `Quick stream_proportion;
          Alcotest.test_case "iter order" `Quick stream_iter_order;
          Alcotest.test_case "draw" `Quick stream_draw;
          Alcotest.test_case "invalid" `Quick stream_invalid;
        ] );
      Prop.suite "properties"
        [
          prop_view_subset_of_fed;
          prop_slot_argmin;
          prop_update_sample_batch_split;
          prop_update_sample_matches_oracle;
          prop_on_message_matches_oracle;
          prop_view_excludes_self;
          prop_eviction_spares_recent_peers;
          prop_stream_model;
          prop_stream_growth_model;
        ];
    ]
