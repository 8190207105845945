(* Tests for basalt.brahms: config, view reconstruction, samplers,
   multi-shot extension. *)

open Basalt_brahms
module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message
module View_ops = Basalt_proto.View_ops

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let id = Node_id.of_int
let rng () = Basalt_prng.Rng.create ~seed:99

(* --- Config --- *)

let config_defaults () =
  let c = Brahms_config.default in
  check_int "l" 160 c.Brahms_config.l;
  Alcotest.(check (float 1e-9)) "rho" 1.0 c.Brahms_config.rho;
  check_int "k = l/2" 80 c.Brahms_config.k

let config_validation () =
  let expect msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  expect "Brahms_config.make: l must be positive" (fun () ->
      ignore (Brahms_config.make ~l:0 ()));
  expect "Brahms_config.make: k must be in [1, l]" (fun () ->
      ignore (Brahms_config.make ~l:4 ~k:5 ()))

let config_refresh () =
  let c = Brahms_config.make ~l:100 ~k:25 ~rho:0.5 () in
  Alcotest.(check (float 1e-9)) "k/rho" 50.0 (Brahms_config.refresh_interval c)

(* --- Brahms node --- *)

let capture () =
  let sent = ref [] in
  let send ~dst msg = sent := (dst, msg) :: !sent in
  (sent, send)

(* A node as programs build and drive it: through [Brahms.sampler]'s
   [Rps.t]. *)
let node ?obs ~l ~k ~id ~bootstrap ~rng ~send () =
  Brahms.sampler ~config:(Brahms_config.make ~l ~k ()) ?obs () ~id ~bootstrap
    ~rng ~send

let on_round (t : Basalt_proto.Rps.t) = t.on_round ()
let on_message (t : Basalt_proto.Rps.t) ~from msg = t.on_message ~from msg
let view (t : Basalt_proto.Rps.t) = t.current_view ()
let sample_tick (t : Basalt_proto.Rps.t) = t.sample_tick ()

let make ?(l = 8) ?(k = 2) ?(bootstrap = Array.init 6 (fun i -> id (i + 1))) ()
    =
  let sent, send = capture () in
  (node ~l ~k ~id:(id 0) ~bootstrap ~rng:(rng ()) ~send (), sent)

let brahms_bootstrap () =
  let t, _ = make () in
  check_bool "view from bootstrap" true (Array.length (view t) > 0);
  Array.iter
    (fun p ->
      check_bool "no self" false (Node_id.equal p (id 0));
      check_bool "bootstrap member" true (Node_id.to_int p <= 6))
    (view t)

let brahms_round_sends_push_id_and_pull () =
  let t, sent = make () in
  on_round t;
  let kinds = List.map (fun (_, m) -> Message.kind m) !sent in
  check_int "two messages" 2 (List.length kinds);
  check_bool "push-id" true (List.mem "push-id" kinds);
  check_bool "pull" true (List.mem "pull" kinds);
  (* the push-id must carry the node's own identifier *)
  List.iter
    (fun (_, m) ->
      match m with
      | Message.Push_id p -> check_int "own id pushed" 0 (Node_id.to_int p)
      | _ -> ())
    !sent

let brahms_pull_answered_with_view () =
  let t, sent = make () in
  on_message t ~from:(id 42) Message.Pull_request;
  match !sent with
  | [ (dst, Message.Pull_reply reply) ] ->
      check_int "to requester" 42 (Node_id.to_int dst);
      check_int "carries current view" (Array.length (view t))
        (Array.length reply)
  | _ -> Alcotest.fail "expected pull reply"

let brahms_view_update_requires_both () =
  let t, _ = make () in
  let before = view t in
  (* Only a pull reply: no rebuild. *)
  on_message t ~from:(id 2) (Message.Pull_reply [| id 30; id 31 |]);
  on_round t;
  Alcotest.(check (array int))
    "pull alone keeps view"
    (Array.map Node_id.to_int before)
    (Array.map Node_id.to_int (view t));
  (* Now both channels: rebuild happens. *)
  on_message t ~from:(id 30) (Message.Push_id (id 30));
  on_message t ~from:(id 2) (Message.Pull_reply [| id 31; id 32 |]);
  on_round t;
  let after = view t in
  check_bool "view rebuilt from receipts" true
    (Array.mem (id 30) after
    || Array.mem (id 31) after
    || Array.mem (id 32) after)

let brahms_push_only_no_update () =
  let t, _ = make () in
  let before = view t in
  on_message t ~from:(id 50) (Message.Push_id (id 50));
  on_round t;
  Alcotest.(check (array int))
    "push alone keeps view"
    (Array.map Node_id.to_int before)
    (Array.map Node_id.to_int (view t))

(* With k = l, a sample tick emits every non-empty sampler of 𝒮. *)
let brahms_samplers_minwise () =
  let once, _ = make ~l:16 ~k:16 () and twice, _ = make ~l:16 ~k:16 () in
  (* Feed a batch of ids through a push: samplers must absorb them. *)
  on_message once ~from:(id 7) (Message.Push_id (id 7));
  on_message twice ~from:(id 7) (Message.Push_id (id 7));
  (* Stubbornness: replaying the same messages changes nothing. *)
  on_message twice ~from:(id 7) (Message.Push_id (id 7));
  let outputs = List.map Node_id.to_int (sample_tick once) in
  check_bool "samplers filled" true (outputs <> []);
  Alcotest.(check (list int))
    "stubborn" outputs
    (List.map Node_id.to_int (sample_tick twice))

let brahms_multi_id_push_is_single () =
  let t, _ = make ~l:64 ~k:64 () in
  (* A forged multi-id push must contribute only the sender, per Brahms
     message syntax. *)
  on_message t ~from:(id 70) (Message.Push (Array.init 50 (fun i -> id (100 + i))));
  List.iter
    (fun p ->
      check_bool "forged payload ignored" false (Node_id.to_int p >= 100))
    (sample_tick t)

let brahms_sample_tick () =
  let t, _ = make ~l:8 ~k:3 () in
  let s = sample_tick t in
  check_int "k samples" 3 (List.length s);
  (* After resetting all samplers in circles they keep producing as long
     as traffic refills them; with no traffic they dry out. *)
  let rec drain i acc =
    if i = 0 then acc else drain (i - 1) (acc + List.length (sample_tick t))
  in
  let produced = drain 3 0 in
  check_bool "resets drain without refill" true (produced <= 8)

let brahms_sampler_interface () =
  let maker = Brahms.sampler ~config:(Brahms_config.make ~l:8 ()) () in
  let count = ref 0 in
  let s =
    maker ~id:(id 0)
      ~bootstrap:(Array.init 4 (fun i -> id (i + 1)))
      ~rng:(rng ())
      ~send:(fun ~dst:_ _ -> incr count)
  in
  Alcotest.(check string) "protocol" "brahms" s.Basalt_proto.Rps.protocol;
  s.Basalt_proto.Rps.on_round ();
  check_int "sends per round" 2 !count

module Gen = QCheck2.Gen
module Test = QCheck2.Test
module Print = QCheck2.Print

let prop_view_never_contains_self =
  Test.make ~name:"brahms view never contains self" ~count:100
    ~print:Print.int (Gen.int_bound 10_000)
    (fun seed ->
      let t =
        node ~l:8 ~k:8 ~id:(Node_id.of_int 0)
          ~bootstrap:(Array.init 6 (fun i -> Node_id.of_int i))
          ~rng:(Basalt_prng.Rng.create ~seed)
          ~send:(fun ~dst:_ _ -> ())
          ()
      in
      on_message t ~from:(Node_id.of_int 1) (Message.Push_id (Node_id.of_int 1));
      on_message t ~from:(Node_id.of_int 2)
        (Message.Pull_reply [| Node_id.of_int 0; Node_id.of_int 3 |]);
      on_round t;
      not (List.exists (fun p -> Node_id.to_int p = 0) (sample_tick t)))

(* Min-wise samplers are order-oblivious: two same-seed instances fed
   the same identifier multiset in different orders expose identical
   sampler outputs.  [Push_id] handling draws no randomness, so the
   instances stay stream-aligned. *)
let prop_samplers_permutation_invariant =
  Test.make ~name:"sampler outputs are feed-order invariant" ~count:150
    ~print:(Print.pair Print.int (Print.list Print.int))
    (Gen.pair (Gen.int_bound 10_000)
       (Gen.list_size (Gen.int_range 1 40) (Gen.int_range 1 200)))
    (fun (seed, ids) ->
      let make () =
        node ~l:8 ~k:8 ~id:(Node_id.of_int 0) ~bootstrap:[||]
          ~rng:(Basalt_prng.Rng.create ~seed)
          ~send:(fun ~dst:_ _ -> ())
          ()
      in
      let feed t order =
        List.iter
          (fun i ->
            on_message t ~from:(Node_id.of_int i)
              (Message.Push_id (Node_id.of_int i)))
          order
      in
      let a = make () and b = make () in
      feed a ids;
      feed b (List.rev ids);
      sample_tick a = sample_tick b)

(* Differential oracle: a naive model that ranks every (sampler, id)
   pair with [Rank.rank Cheap] and keeps the strict minimum per sampler,
   fed the ids Brahms's message syntax admits, less the node's own.
   Without [on_round], the only
   draws after [create] are the sample-tick reseeds, so the model follows
   the node's PRNG stream exactly: [Rng.split], [l] seeds, the initial
   view's [random_subset], then one seed per reset in round-robin
   order. *)
module Rank = Basalt_hashing.Rank
module Rng = Basalt_prng.Rng

type op =
  | Reply of int * int list  (* Pull_reply from a peer *)
  | Push_id of int * int  (* Push_id from a peer, carrying an id *)
  | Push of int * int list  (* multi-id Push: only the sender counts *)
  | Tick

let print_op = function
  | Reply (f, ids) -> Printf.sprintf "Reply(%d,%s)" f (Print.list Print.int ids)
  | Push_id (f, i) -> Printf.sprintf "Push_id(%d,%d)" f i
  | Push (f, ids) -> Printf.sprintf "Push(%d,%s)" f (Print.list Print.int ids)
  | Tick -> "Tick"

let gen_op =
  let peer = Gen.int_bound 24 in
  let ids = Gen.list_size (Gen.int_bound 12) (Gen.int_bound 24) in
  Gen.frequency
    [
      (4, Gen.map2 (fun f l -> Reply (f, l)) peer ids);
      (3, Gen.map2 (fun f i -> Push_id (f, i)) peer peer);
      (1, Gen.map2 (fun f l -> Push (f, l)) peer ids);
      (2, Gen.return Tick);
    ]

type model = {
  m_rng : Rng.t;
  m_seeds : int array;
  m_best : (int * int) option array;  (* (rank, id) *)
  mutable m_next : int;
  mutable m_evals : int;
}

let model_feed m ~self ids =
  List.iter
    (fun i ->
      if i <> self then
        Array.iteri
          (fun s seed ->
            m.m_evals <- m.m_evals + 1;
            let r = Rank.rank Rank.Cheap seed i in
            match m.m_best.(s) with
            | Some (best, _) when best <= r -> ()
            | Some _ | None -> m.m_best.(s) <- Some (r, i))
          m.m_seeds)
    ids

let model_tick m ~k =
  List.init k (fun _ ->
      let s = m.m_next in
      m.m_next <- (s + 1) mod Array.length m.m_seeds;
      let out = Option.map snd m.m_best.(s) in
      m.m_seeds.(s) <- Rank.fresh m.m_rng;
      m.m_best.(s) <- None;
      out)
  |> List.filter_map Fun.id

let prop_samplers_match_naive_model =
  Test.make ~name:"samplers match the naive min-rank model" ~count:300
    ~print:(fun (seed, (l, boot), ops) ->
      Printf.sprintf "seed=%d l=%d boot=%s ops=%s" seed l
        (Print.list Print.int boot) (Print.list print_op ops))
    (Gen.triple (Gen.int_bound 10_000)
       (Gen.pair (Gen.int_range 1 10)
          (Gen.list_size (Gen.int_bound 10) (Gen.int_bound 24)))
       (Gen.list_size (Gen.int_bound 30) gen_op))
    (fun (seed, (l, boot), ops) ->
      let k = 1 + (seed mod l) in
      let self = 0 in
      let obs = Basalt_obs.Obs.create () in
      let t =
        node ~l ~k ~obs ~id:(id self) ~bootstrap:(Array.of_list (List.map id boot))
          ~rng:(Rng.create ~seed) ~send:(fun ~dst:_ _ -> ()) ()
      in
      let m =
        let rng = Rng.split (Rng.create ~seed) in
        let m_seeds = Array.init l (fun _ -> Rank.fresh rng) in
        let candidates =
          Array.of_list (List.map id (List.filter (fun i -> i <> self) boot))
        in
        ignore (View_ops.random_subset rng ~k:l candidates);
        {
          m_rng = rng;
          m_seeds;
          m_best = Array.make l None;
          m_next = 0;
          m_evals = 0;
        }
      in
      model_feed m ~self boot;
      let tick () = List.map Node_id.to_int (sample_tick t) = model_tick m ~k in
      let step op =
        match op with
        | Reply (f, ids) ->
            on_message t ~from:(id f)
              (Message.Pull_reply (Array.of_list (List.map id ids)));
            model_feed m ~self ids;
            true
        | Push_id (f, i) ->
            on_message t ~from:(id f) (Message.Push_id (id i));
            model_feed m ~self [ i ];
            true
        | Push (f, ids) ->
            on_message t ~from:(id f)
              (Message.Push (Array.of_list (List.map id ids)));
            model_feed m ~self [ f ];
            true
        | Tick -> tick ()
      in
      (* The service shows 𝒮 only through its ticks: after the script,
         enough ticks to emit every sampler compare the final state. *)
      List.for_all step ops
      && List.for_all tick (List.init ((l / k) + 1) (fun _ -> ()))
      && Basalt_obs.Obs.Counter.value
           (Basalt_obs.Obs.counter obs "brahms.rank_evals")
         = m.m_evals)

(* The nodes of one maker share its batch scratch.  Interleaving rounds,
   replies of growing size and sample ticks across four such nodes must
   give exactly what four nodes of four separate makers give. *)
let brahms_shared_scratch () =
  let config = Brahms_config.make ~l:12 ~k:4 () in
  let send ~dst:_ _ = () in
  let build maker i =
    maker ~id:(id i)
      ~bootstrap:(Array.init (3 + (5 * i)) (fun j -> id (1 + ((7 * j) + i) mod 90)))
      ~rng:(Rng.create ~seed:(100 + i)) ~send
  in
  let shared = Brahms.sampler ~config () in
  let together = Array.init 4 (build shared) in
  let apart = Array.init 4 (fun i -> build (Brahms.sampler ~config ()) i) in
  let script = Rng.create ~seed:5 in
  for step = 0 to 199 do
    let i = step mod 4 in
    let reply =
      Array.init (Rng.int script (1 + step / 4)) (fun _ -> id (Rng.int script 200))
    in
    let from = id (Rng.int script 200) in
    let drive (s : Basalt_proto.Rps.t) =
      s.Basalt_proto.Rps.on_message ~from (Message.Pull_reply reply);
      s.Basalt_proto.Rps.on_message ~from (Message.Push_id from);
      if step mod 3 = 0 then s.Basalt_proto.Rps.on_round ();
      if step mod 5 = 0 then
        List.map Node_id.to_int (s.Basalt_proto.Rps.sample_tick ())
      else []
    in
    let a = drive together.(i) and b = drive apart.(i) in
    Alcotest.(check (list int)) "samples" b a;
    Alcotest.(check (array int))
      "view"
      (Array.map Node_id.to_int (apart.(i).Basalt_proto.Rps.current_view ()))
      (Array.map Node_id.to_int (together.(i).Basalt_proto.Rps.current_view ()))
  done

(* Words one node of a 200-node run retains (l = 160, a distinct
   64-id bootstrap, disabled telemetry): its 160 min-wise samplers as
   three int arrays (seeds, holders, best ranks: 3 x 161 words), its
   view, its PRNG and its record — 624 words measured; the budget is
   that plus 5 %.  The batch scratch is its maker's; the RTT tracker
   of a disabled registry is shared. *)
let words_per_node_budget = 656

let brahms_per_node_footprint () =
  let r = Basalt_prng.Rng.create ~seed:42 in
  let maker =
    Brahms.sampler ~config:(Brahms_config.make ~l:160 ())
      ~obs:Basalt_obs.Obs.disabled ()
  in
  let send ~dst:_ _ = () in
  let nodes =
    Array.init 200 (fun i ->
        let bootstrap =
          Basalt_prng.Rng.sample_without_replacement r ~k:64 (Array.init 20_000 id)
        in
        maker ~id:(id i) ~bootstrap ~rng:r ~send)
  in
  let per_node = Obj.reachable_words (Obj.repr nodes) / Array.length nodes in
  if per_node > words_per_node_budget then
    Alcotest.failf "%d words per node, over the budget of %d" per_node
      words_per_node_budget

let () =
  Alcotest.run "brahms"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick config_defaults;
          Alcotest.test_case "validation" `Quick config_validation;
          Alcotest.test_case "refresh" `Quick config_refresh;
        ] );
      ( "brahms",
        [
          Alcotest.test_case "bootstrap" `Quick brahms_bootstrap;
          Alcotest.test_case "round messages" `Quick
            brahms_round_sends_push_id_and_pull;
          Alcotest.test_case "pull answered" `Quick
            brahms_pull_answered_with_view;
          Alcotest.test_case "update needs push AND pull" `Quick
            brahms_view_update_requires_both;
          Alcotest.test_case "push alone keeps view" `Quick
            brahms_push_only_no_update;
          Alcotest.test_case "samplers min-wise" `Quick brahms_samplers_minwise;
          Alcotest.test_case "multi-id push parsed as one" `Quick
            brahms_multi_id_push_is_single;
          Alcotest.test_case "sample_tick" `Quick brahms_sample_tick;
          Alcotest.test_case "sampler interface" `Quick brahms_sampler_interface;
          Alcotest.test_case "per-node footprint" `Quick
            brahms_per_node_footprint;
          Alcotest.test_case "shared scratch matches private" `Quick
            brahms_shared_scratch;
        ] );
      Prop.suite "properties"
        [
          prop_view_never_contains_self;
          prop_samplers_permutation_invariant;
          prop_samplers_match_naive_model;
        ];
    ]
