(* Tests for basalt.proto: node ids, messages, view operations, RPS. *)

open Basalt_proto

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let id = Node_id.of_int

(* --- Node_id --- *)

let node_id_round_trip () =
  check_int "round trip" 42 (Node_id.to_int (Node_id.of_int 42))

let node_id_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Node_id.of_int: negative id")
    (fun () -> ignore (Node_id.of_int (-1)))

let node_id_equal_compare () =
  check_bool "equal" true (Node_id.equal (id 3) (id 3));
  check_bool "not equal" false (Node_id.equal (id 3) (id 4))

(* --- Message --- *)

let message_kinds () =
  Alcotest.(check string) "pull" "pull" (Message.kind Message.Pull_request);
  Alcotest.(check string) "pull-reply" "pull-reply"
    (Message.kind (Message.Pull_reply [||]));
  Alcotest.(check string) "push" "push" (Message.kind (Message.Push [||]));
  Alcotest.(check string) "push-id" "push-id"
    (Message.kind (Message.Push_id (id 0)))

(* A 4-byte header and 4 bytes per carried identifier. *)
let message_payloads () =
  check_int "pull" 4 (Message.bytes_on_wire Message.Pull_request);
  check_int "push of 3" 16
    (Message.bytes_on_wire (Message.Push [| id 1; id 2; id 3 |]));
  check_int "push-id" 8 (Message.bytes_on_wire (Message.Push_id (id 9)))

let message_wire_size () =
  (* 200 ids at 4 bytes + 4-byte header fits a 1500-byte MTU: the paper's
     communication-budget argument. *)
  let view = Array.init 200 id in
  check_int "200-id view" 804 (Message.bytes_on_wire (Message.Push view));
  check_bool "fits MTU" true (Message.bytes_on_wire (Message.Push view) <= 1500)

(* --- View_ops --- *)

let view = [| id 0; id 1; id 2; id 1; id 4 |]

let view_count () =
  (* The count behind [proportion]: 3 of the 5 entries are even. *)
  check_int "evens" 3
    (Float.to_int
       (View_ops.proportion (fun x -> Node_id.to_int x mod 2 = 0) view
       *. float_of_int (Array.length view)))

let view_proportion () =
  Alcotest.(check (float 1e-9)) "proportion" 0.6
    (View_ops.proportion (fun x -> Node_id.to_int x mod 2 = 0) view);
  Alcotest.(check (float 1e-9)) "empty" 0.0
    (View_ops.proportion (fun _ -> true) [||])

let view_distinct () =
  let d = View_ops.distinct view in
  check_int "dedup size" 4 (Array.length d);
  Alcotest.(check (list int))
    "order preserved" [ 0; 1; 2; 4 ]
    (Array.to_list (Array.map Node_id.to_int d))

let view_random_member () =
  let rng = Basalt_prng.Rng.create ~seed:1 in
  check_bool "empty none" true (View_ops.random_member rng [||] = None);
  match View_ops.random_member rng view with
  | Some m -> check_bool "member of view" true (Array.mem m view)
  | None -> Alcotest.fail "expected a member"

let view_random_subset () =
  let rng = Basalt_prng.Rng.create ~seed:2 in
  let s = View_ops.random_subset rng ~k:3 view in
  check_int "size" 3 (Array.length s);
  Array.iter (fun x -> check_bool "member" true (Array.mem x view)) s;
  check_int "k > size clamps" 5 (Array.length (View_ops.random_subset rng ~k:100 view))

(* --- Rps --- *)

let rps_null () =
  let s = Rps.null (id 5) in
  Alcotest.(check string) "name" "null" s.Rps.protocol;
  check_int "node" 5 (Node_id.to_int s.Rps.node);
  s.Rps.on_round ();
  s.Rps.on_message ~from:(id 1) Message.Pull_request;
  check_bool "no samples" true (s.Rps.sample_tick () = []);
  check_int "empty view" 0 (Array.length (s.Rps.current_view ()))

module Gen = QCheck2.Gen
module Test = QCheck2.Test
module Print = QCheck2.Print

let print_ids = Print.list Print.int
let small_nats = Gen.list_size (Gen.int_bound 40) (Gen.int_bound 100)

(* Up to 120 ids: [distinct] scans inputs of up to 48 ids and hashes
   longer ones, so both paths are covered. *)
let distinct_inputs = Gen.list_size (Gen.int_bound 120) (Gen.int_bound 100)

let prop_distinct_is_distinct =
  Test.make ~name:"distinct removes all duplicates" ~count:300
    ~print:print_ids distinct_inputs
    (fun l ->
      let view = Array.of_list (List.map Node_id.of_int l) in
      let d = View_ops.distinct view in
      let ints = Array.to_list (Array.map Node_id.to_int d) in
      List.sort_uniq Int.compare ints = List.sort Int.compare ints)

let prop_distinct_preserves_first_occurrence =
  Test.make ~name:"distinct keeps first occurrences in order" ~count:300
    ~print:print_ids distinct_inputs
    (fun l ->
      let view = Array.of_list (List.map Node_id.of_int l) in
      let d = Array.to_list (Array.map Node_id.to_int (View_ops.distinct view)) in
      let rec first_occurrences seen = function
        | [] -> []
        | x :: rest ->
            if List.mem x seen then first_occurrences seen rest
            else x :: first_occurrences (x :: seen) rest
      in
      d = first_occurrences [] l)

let prop_subset_members =
  Test.make ~name:"random_subset returns members" ~count:300
    ~print:(Print.pair Print.int print_ids)
    (Gen.pair (Gen.int_bound 10_000) small_nats)
    (fun (seed, l) ->
      let rng = Basalt_prng.Rng.create ~seed in
      let view = Array.of_list (List.map Node_id.of_int l) in
      let s = View_ops.random_subset rng ~k:3 view in
      Array.for_all (fun x -> Array.mem x view) s)

let () =
  Alcotest.run "proto"
    [
      ( "node_id",
        [
          Alcotest.test_case "round trip" `Quick node_id_round_trip;
          Alcotest.test_case "negative" `Quick node_id_negative;
          Alcotest.test_case "equal/compare/hash" `Quick node_id_equal_compare;
        ] );
      ( "message",
        [
          Alcotest.test_case "kinds" `Quick message_kinds;
          Alcotest.test_case "payloads" `Quick message_payloads;
          Alcotest.test_case "wire size" `Quick message_wire_size;
        ] );
      ( "view_ops",
        [
          Alcotest.test_case "count" `Quick view_count;
          Alcotest.test_case "proportion" `Quick view_proportion;
          Alcotest.test_case "distinct" `Quick view_distinct;
          Alcotest.test_case "random member" `Quick view_random_member;
          Alcotest.test_case "random subset" `Quick view_random_subset;
        ] );
      ( "rps",
        [ Alcotest.test_case "null sampler" `Quick rps_null ] );
      Prop.suite "properties"
        [
          prop_distinct_is_distinct;
          prop_distinct_preserves_first_occurrence;
          prop_subset_members;
        ];
    ]
