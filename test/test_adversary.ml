(* Tests for basalt.adversary: the collective Byzantine coalition. *)

open Basalt_adversary
module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let id = Node_id.of_int
let rng () = Basalt_prng.Rng.create ~seed:5

let malicious = Array.init 10 (fun i -> id (90 + i))
let correct = Array.init 90 id
let is_malicious p = Node_id.to_int p >= 90

let capture () =
  let sent = ref [] in
  let send ~src ~dst msg = sent := (src, dst, msg) :: !sent in
  (sent, send)

let make ?(force = 2.0) ?strategy () =
  let sent, send = capture () in
  let adv =
    Adversary.create ~rng:(rng ()) ~malicious ~correct ~v:8 ~force ?strategy
      ~send ()
  in
  (adv, sent)

let validation () =
  let _, send = capture () in
  Alcotest.check_raises "empty coalition"
    (Invalid_argument "Adversary.create: empty coalition") (fun () ->
      ignore (Adversary.create ~rng:(rng ()) ~malicious:[||] ~correct ~v:8 ~force:1.0 ~send ()));
  Alcotest.check_raises "bad v" (Invalid_argument "Adversary.create: v must be positive")
    (fun () ->
      ignore (Adversary.create ~rng:(rng ()) ~malicious ~correct ~v:0 ~force:1.0 ~send ()));
  Alcotest.check_raises "negative force"
    (Invalid_argument "Adversary.create: negative force") (fun () ->
      ignore (Adversary.create ~rng:(rng ()) ~malicious ~correct ~v:8 ~force:(-1.0) ~send ()))

(* The forged view the coalition answers a pull request with. *)
let pulled_view adv sent =
  sent := [];
  Adversary.on_message adv ~victim_reply:true ~from:(id 3) ~to_:(id 91)
    Message.Pull_request;
  match !sent with
  | [ (_, _, Message.Pull_reply view) ] -> view
  | _ -> Alcotest.fail "expected one pull reply"

(* The coalition is its members: forged views draw from every one of
   them and from nobody else. *)
let membership () =
  let adv, sent = make () in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 50 do
    Array.iter
      (fun p -> Hashtbl.replace seen (Node_id.to_int p) ())
      (pulled_view adv sent)
  done;
  Alcotest.(check (list int))
    "every member, nobody else"
    (List.init 10 (fun i -> 90 + i))
    (List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []))

let forged_views () =
  let adv, sent = make () in
  for _ = 1 to 20 do
    let view = pulled_view adv sent in
    check_int "size v" 8 (Array.length view);
    Array.iter (fun p -> check_bool "all malicious" true (is_malicious p)) view
  done

let pull_answered () =
  let adv, sent = make () in
  Adversary.on_message adv ~victim_reply:true ~from:(id 3) ~to_:(id 91)
    Message.Pull_request;
  match !sent with
  | [ (src, dst, Message.Pull_reply view) ] ->
      check_int "reply from the queried malicious node" 91 (Node_id.to_int src);
      check_int "reply to requester" 3 (Node_id.to_int dst);
      Array.iter
        (fun p -> check_bool "forged ids" true (is_malicious p))
        view
  | _ -> Alcotest.fail "expected one pull reply"

let pull_censored () =
  let adv, sent = make () in
  Adversary.on_message adv ~victim_reply:false ~from:(id 3) ~to_:(id 91)
    Message.Pull_request;
  check_int "no reply when censoring" 0 (List.length !sent)

let non_pull_absorbed () =
  let adv, sent = make () in
  Adversary.on_message adv ~victim_reply:true ~from:(id 3) ~to_:(id 91)
    (Message.Push [| id 1 |]);
  Adversary.on_message adv ~victim_reply:true ~from:(id 3) ~to_:(id 91)
    (Message.Push_id (id 1));
  check_int "absorbed silently" 0 (List.length !sent)

let flood_volume () =
  let adv, sent = make ~force:2.0 () in
  Adversary.on_round adv;
  (* force * |malicious| = 20 pushes per round exactly (integer force). *)
  check_int "push volume" 20 (List.length !sent);
  check_int "counter" 20 (Adversary.pushes_sent adv);
  List.iter
    (fun (src, dst, msg) ->
      check_bool "from malicious" true (is_malicious src);
      check_bool "to correct" false (is_malicious dst);
      match msg with
      | Message.Push view ->
          Array.iter
            (fun p -> check_bool "payload malicious" true (is_malicious p))
            view
      | _ -> Alcotest.fail "flood must use pushes")
    !sent

let fractional_force () =
  (* force 0.05 with 10 malicious = 0.5 expected pushes per round; over
     many rounds the average must approach 0.5. *)
  let adv, sent = make ~force:0.05 () in
  let rounds = 2000 in
  for _ = 1 to rounds do
    Adversary.on_round adv
  done;
  let per_round = float_of_int (List.length !sent) /. float_of_int rounds in
  check_bool "expectation honoured" true (Float.abs (per_round -. 0.5) < 0.1)

let eclipse_targets_victim () =
  let adv, sent = make ~strategy:(Adversary.Eclipse (id 7)) () in
  Adversary.on_round adv;
  check_bool "sends pushes" true (List.length !sent > 0);
  List.iter
    (fun (_, dst, _) -> check_int "all aimed at victim" 7 (Node_id.to_int dst))
    !sent

let silent_sends_nothing () =
  let adv, sent = make ~strategy:Adversary.Silent () in
  for _ = 1 to 10 do
    Adversary.on_round adv
  done;
  check_int "no pushes" 0 (List.length !sent);
  (* ...but still answers pulls (the F=0 attack of §4.3). *)
  Adversary.on_message adv ~victim_reply:true ~from:(id 1) ~to_:(id 90)
    Message.Pull_request;
  check_int "answers pulls" 1 (List.length !sent)


let prop_forged_views_malicious =
  QCheck2.Test.make ~name:"forged views contain only coalition members"
    ~count:200
    ~print:QCheck2.Print.int
    (QCheck2.Gen.int_bound 10_000)
    (fun seed ->
      let sent, send = capture () in
      let adv =
        Adversary.create
          ~rng:(Basalt_prng.Rng.create ~seed)
          ~malicious ~correct ~v:8 ~force:1.0 ~send ()
      in
      Array.for_all is_malicious (pulled_view adv sent))

let () =
  Alcotest.run "adversary"
    [
      ( "adversary",
        [
          Alcotest.test_case "validation" `Quick validation;
          Alcotest.test_case "membership" `Quick membership;
          Alcotest.test_case "forged views" `Quick forged_views;
          Alcotest.test_case "pull answered" `Quick pull_answered;
          Alcotest.test_case "pull censored" `Quick pull_censored;
          Alcotest.test_case "non-pull absorbed" `Quick non_pull_absorbed;
          Alcotest.test_case "flood volume" `Quick flood_volume;
          Alcotest.test_case "fractional force" `Slow fractional_force;
          Alcotest.test_case "eclipse targets victim" `Quick
            eclipse_targets_victim;
          Alcotest.test_case "silent" `Quick silent_sends_nothing;
          Prop.case ~suite:"adversary" prop_forged_views_malicious;
        ] );
    ]
