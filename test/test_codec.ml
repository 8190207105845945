(* Tests for basalt.codec: the binary wire format.

   Example-based cases pin the format; the properties fuzz the
   decoder (decode must be total: typed Error, never an exception, never
   a read past the buffer) and check the encode/decode round trip over
   the full message space.  corpus/wire_corpus.txt replays previously
   crashing / near-miss inputs on every run. *)

module Gen = QCheck2.Gen
module Test = QCheck2.Test
module Gens = Prop.Gens
module Print = QCheck2.Print
module Wire = Basalt_codec.Wire
module Message = Basalt_proto.Message
module Node_id = Basalt_proto.Node_id
module Rng = Basalt_prng.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let id = Node_id.of_int

let error_name = function
  | Wire.Truncated -> "truncated"
  | Wire.Bad_magic m -> Printf.sprintf "bad magic %#x" m
  | Wire.Bad_version v -> Printf.sprintf "bad version %d" v
  | Wire.Bad_tag t -> Printf.sprintf "bad tag %d" t
  | Wire.Trailing_garbage n -> Printf.sprintf "%d trailing bytes" n
  | Wire.Id_out_of_range -> "id out of range"

let msg_equal a b =
  match (a, b) with
  | Message.Pull_request, Message.Pull_request -> true
  | Message.Pull_reply x, Message.Pull_reply y | Message.Push x, Message.Push y
    ->
      Array.length x = Array.length y
      && Array.for_all2 Node_id.equal x y
  | Message.Push_id x, Message.Push_id y -> Node_id.equal x y
  | ( Message.Gossip { mid = m1; hops = h1; payload = p1 },
      Message.Gossip { mid = m2; hops = h2; payload = p2 } ) ->
      Message.mid_equal m1 m2 && h1 = h2 && Bytes.equal p1 p2
  | Message.Ihave x, Message.Ihave y | Message.Iwant x, Message.Iwant y ->
      Array.length x = Array.length y && Array.for_all2 Message.mid_equal x y
  | Message.Graft, Message.Graft | Message.Prune, Message.Prune -> true
  | _ -> false

let round_trip msg =
  match Wire.decode (Wire.encode msg) with
  | Ok decoded -> check_bool "round trip" true (msg_equal msg decoded)
  | Error e -> Alcotest.failf "decode error: %s" (error_name e)

let codec_round_trips () =
  round_trip Message.Pull_request;
  round_trip (Message.Pull_reply [||]);
  round_trip (Message.Pull_reply [| id 1; id 2; id 3 |]);
  round_trip (Message.Push (Array.init 200 id));
  round_trip (Message.Push_id (id 0));
  round_trip (Message.Push_id (id ((1 lsl 48) - 1)))

let mid origin seqno = { Message.origin = id origin; seqno }

(* One pinned round trip per broadcast frame constructor (the round-trip
   property below covers the full space). *)
let codec_broadcast_round_trips () =
  round_trip (Message.Gossip { mid = mid 7 0; hops = 0; payload = Bytes.empty });
  round_trip
    (Message.Gossip
       { mid = mid ((1 lsl 48) - 1) 0xFFFF_FFFF;
         hops = 0xFFFF;
         payload = Bytes.of_string "rumor" });
  round_trip (Message.Ihave [||]);
  round_trip (Message.Ihave [| mid 1 2; mid 3 0xFFFF_FFFF |]);
  round_trip (Message.Iwant [| mid 42 7 |]);
  round_trip Message.Graft;
  round_trip Message.Prune

let codec_broadcast_sizes () =
  let g = Message.Gossip { mid = mid 1 2; hops = 3; payload = Bytes.create 10 } in
  check_int "gossip size" (6 + 14 + 10) (Bytes.length (Wire.encode g));
  check_int "gossip encoded_size agrees" (Bytes.length (Wire.encode g))
    (Wire.encoded_size g);
  let ih = Message.Ihave [| mid 1 2; mid 3 4 |] in
  check_int "ihave size" (6 + 24) (Bytes.length (Wire.encode ih));
  check_int "graft is header only" 6 (Bytes.length (Wire.encode Message.Graft));
  check_int "prune encoded_size" 6 (Wire.encoded_size Message.Prune)

(* The format cannot carry out-of-range broadcast fields; encode must
   refuse rather than truncate silently. *)
let codec_broadcast_encode_guards () =
  let check name expected msg =
    Alcotest.check_raises name (Invalid_argument expected) (fun () ->
        ignore (Wire.encode msg))
  in
  check "seqno too large" "Wire.encode: sequence number out of u32 range"
    (Message.Gossip
       { mid = mid 1 0x1_0000_0000 (* u32 + 1 *); hops = 0; payload = Bytes.empty });
  check "negative seqno in digest"
    "Wire.encode: sequence number out of u32 range"
    (Message.Ihave [| mid 1 (-1) |]);
  check "hops too large" "Wire.encode: hop count out of u16 range"
    (Message.Gossip
       { mid = mid 1 0; hops = Wire.max_hops + 1; payload = Bytes.empty });
  check "payload too large" "Wire.encode: payload too large"
    (Message.Gossip
       { mid = mid 1 0; hops = 0; payload = Bytes.create (Wire.max_payload + 1) })

let codec_size () =
  check_int "pull is header only" 6
    (Bytes.length (Wire.encode Message.Pull_request));
  let m = Message.Push (Array.init 5 id) in
  check_int "push size" (6 + 40) (Bytes.length (Wire.encode m));
  check_int "encoded_size agrees" (Bytes.length (Wire.encode m))
    (Wire.encoded_size m)

let expect_error name buf expected =
  match Wire.decode buf with
  | Ok _ -> Alcotest.failf "%s: expected error" name
  | Error e -> check_bool name true (e = expected)

let codec_rejects_garbage () =
  expect_error "empty" (Bytes.create 0) Wire.Truncated;
  expect_error "short header" (Bytes.create 3) Wire.Truncated;
  let good = Wire.encode (Message.Push [| id 1 |]) in
  let bad_magic = Bytes.copy good in
  Bytes.set_uint8 bad_magic 0 0x00;
  expect_error "bad magic" bad_magic (Wire.Bad_magic 0);
  let bad_version = Bytes.copy good in
  Bytes.set_uint8 bad_version 1 9;
  expect_error "bad version" bad_version (Wire.Bad_version 9);
  let bad_tag = Bytes.copy good in
  Bytes.set_uint8 bad_tag 2 9;
  expect_error "bad tag" bad_tag (Wire.Bad_tag 9);
  let truncated = Bytes.sub good 0 (Bytes.length good - 1) in
  expect_error "truncated payload" truncated Wire.Truncated;
  let trailing = Bytes.cat good (Bytes.make 2 'x') in
  expect_error "trailing" trailing (Wire.Trailing_garbage 2)

let codec_rejects_negative_id () =
  let buf = Wire.encode (Message.Push_id (id 1)) in
  Bytes.set_int64_be buf 6 (-1L);
  expect_error "negative id" buf Wire.Id_out_of_range

let codec_decode_sub () =
  let msg = Message.Push [| id 42 |] in
  let encoded = Wire.encode msg in
  let padded = Bytes.cat (Bytes.make 3 'p') encoded in
  (match Wire.decode_sub padded ~off:3 ~len:(Bytes.length encoded) with
  | Ok decoded -> check_bool "offset decode" true (msg_equal msg decoded)
  | Error e -> Alcotest.failf "decode error: %s" (error_name e));
  Alcotest.check_raises "bad slice"
    (Invalid_argument "Wire.decode_sub: slice out of bounds") (fun () ->
      ignore (Wire.decode_sub padded ~off:3 ~len:(Bytes.length padded)))

(* Regression: [off + len] used to be computed with a plain addition, so
   hostile values near max_int wrapped negative, slipped past the slice
   guard, and crashed inside the Bytes primitives instead of raising the
   documented Invalid_argument. *)
let codec_decode_sub_overflow () =
  let buf = Bytes.create 16 in
  let cases =
    [ (max_int, 16); (max_int - 7, 32); (8, max_int); (max_int, max_int) ]
  in
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises
        (Printf.sprintf "off=%d len=%d" off len)
        (Invalid_argument "Wire.decode_sub: slice out of bounds")
        (fun () -> ignore (Wire.decode_sub buf ~off ~len)))
    cases

let codec_too_many_ids () =
  Alcotest.check_raises "too many"
    (Invalid_argument "Wire.encode: too many identifiers") (fun () ->
      ignore (Wire.encode (Message.Push (Array.make 0x1_0000 (* u16 + 1 *) (id 0)))))

(* --- corpus replay -------------------------------------------------- *)

let codec_corpus () =
  let entries = Wire_corpus.load () in
  check_bool "corpus is non-empty" true (List.length entries >= 20);
  List.iter
    (fun (name, buf) ->
      match Wire.decode buf with
      | Ok m ->
          Alcotest.failf "corpus %s: decoded Ok (%s), expected Error" name
            (Message.kind m)
      | Error _ -> ()
      | exception e ->
          Alcotest.failf "corpus %s: raised %s" name (Printexc.to_string e))
    entries

(* --- properties ---------------------------------------------------- *)

let print_message m =
  Printf.sprintf "%s, %d bytes" (Message.kind m) (Message.bytes_on_wire m)

(* Round trip over the full message space, including 48-bit identifiers
   (the width the UDP transport packs an address+port into). *)
let prop_round_trip =
  Test.make ~name:"encode/decode round trip" ~count:200
    ~print:print_message
    (Gens.message ())
    (fun msg ->
      match Wire.decode (Wire.encode msg) with
      | Ok decoded -> msg_equal msg decoded
      | Error _ -> false)

let prop_encoded_size =
  Test.make ~name:"encoded_size = length of encode" ~count:200
    ~print:print_message
    (Gens.message ())
    (fun msg -> Wire.encoded_size msg = Bytes.length (Wire.encode msg))

(* Totality on arbitrary byte soup: Ok or Error, never an exception. *)
let prop_decode_total =
  Test.make ~name:"decode never raises" ~count:2000
    ~print:Prop.bytes_hex
    (Gen.bytes_size (Gen.int_bound 64))
    (fun buf -> match Wire.decode buf with Ok _ | Error _ -> true)

(* Flipping any single byte of a valid datagram must either fail to
   decode or decode to a (possibly different) message — never raise. *)
let prop_bitflip_safe =
  Test.make ~name:"bit flips never raise" ~count:200
    ~print:(Print.triple print_message Print.int Print.int)
    (Gen.triple
       (Gens.message ~max_ids:20 ())
       (Gen.int_bound 10_000) (Gen.int_bound 255))
    (fun (msg, pos, value) ->
      let buf = Wire.encode msg in
      let pos = pos mod Bytes.length buf in
      Bytes.set_uint8 buf pos value;
      match Wire.decode buf with Ok _ | Error _ -> true)

(* Malformed-by-construction buffers: each mutation strategy guarantees
   the result is invalid, so decode must return a typed Error (and in
   particular must not raise).  10k cases per seed — the adversarial
   hardening bar of DESIGN.md §9. *)
let malformed_gen =
  let base = Gens.message ~max_ids:20 () in
  let mutate =
    Gen.oneof
      [
        (* truncate at least one byte (all messages are >= 6 bytes) *)
        Gen.map2
          (fun msg cut ->
            let b = Wire.encode msg in
            Bytes.sub b 0 (cut mod Bytes.length b))
          base (Gen.int_bound 10_000);
        (* append trailing garbage *)
        Gen.map2
          (fun msg extra ->
            let b = Wire.encode msg in
            Bytes.cat b (Bytes.make (1 + extra) '\xee'))
          base (Gen.int_bound 16);
        (* corrupt the magic byte *)
        Gen.map2
          (fun msg m ->
            let b = Wire.encode msg in
            Bytes.set_uint8 b 0 (if m = 0xB5 then 0 else m);
            b)
          base (Gen.int_bound 255);
        (* unsupported version *)
        Gen.map2
          (fun msg v ->
            let b = Wire.encode msg in
            Bytes.set_uint8 b 1 (if v = 1 then 0 else v);
            b)
          base (Gen.int_bound 255);
        (* unknown tag (9..255 — tags 4-8 are the broadcast frames) *)
        Gen.map2
          (fun msg t ->
            let b = Wire.encode msg in
            Bytes.set_uint8 b 2 (9 + (t mod 247));
            b)
          base (Gen.int_bound 10_000);
        (* out-of-range identifier: set the sign bit of an id word *)
        Gen.map
          (fun ids ->
            let msg = Message.Push (Array.of_list ids) in
            let b = Wire.encode msg in
            Bytes.set_int64_be b 6
              (Int64.logor 0x8000000000000000L (Bytes.get_int64_be b 6));
            b)
          (Gen.list_size (Gen.int_range 1 20) (Gens.node_id ~max:1000));
        (* declared count larger than the payload *)
        Gen.map2
          (fun msg bump ->
            let b = Wire.encode msg in
            let count = Bytes.get_uint16_be b 4 in
            Bytes.set_uint16_be b 4 (min 0xFFFF (count + 1 + bump));
            b)
          base (Gen.int_bound 1000);
      ]
  in
  mutate

let prop_malformed_rejected =
  Test.make ~name:"malformed buffers are rejected" ~count:10_000
    ~print:Prop.bytes_hex malformed_gen
    (fun buf ->
      match Wire.decode buf with
      | Error _ -> true
      | Ok _ -> false
      | exception _ -> false)

(* Any strict prefix of a valid datagram is Truncated (the declared
   count pins the exact length, so no prefix can re-parse as valid). *)
let prop_prefix_truncated =
  Test.make ~name:"strict prefixes decode to Truncated" ~count:200
    ~print:(Print.pair print_message Print.int)
    (Gen.pair (Gens.message ~max_ids:20 ()) (Gen.int_bound 10_000))
    (fun (msg, cut) ->
      let b = Wire.encode msg in
      let prefix = Bytes.sub b 0 (cut mod Bytes.length b) in
      match Wire.decode prefix with
      | Error Wire.Truncated -> true
      | Error _ | Ok _ -> false)

let () =
  Alcotest.run "codec"
    [
      ( "wire",
        [
          Alcotest.test_case "round trips" `Quick codec_round_trips;
          Alcotest.test_case "sizes" `Quick codec_size;
          Alcotest.test_case "rejects garbage" `Quick codec_rejects_garbage;
          Alcotest.test_case "rejects negative id" `Quick
            codec_rejects_negative_id;
          Alcotest.test_case "decode_sub" `Quick codec_decode_sub;
          Alcotest.test_case "decode_sub overflow" `Quick
            codec_decode_sub_overflow;
          Alcotest.test_case "too many ids" `Quick codec_too_many_ids;
          Alcotest.test_case "broadcast round trips" `Quick
            codec_broadcast_round_trips;
          Alcotest.test_case "broadcast sizes" `Quick codec_broadcast_sizes;
          Alcotest.test_case "broadcast encode guards" `Quick
            codec_broadcast_encode_guards;
          Alcotest.test_case "corpus replay" `Quick codec_corpus;
        ] );
      Prop.suite "properties"
        [
          prop_round_trip;
          prop_encoded_size;
          prop_decode_total;
          prop_bitflip_safe;
          prop_malformed_rejected;
          prop_prefix_truncated;
        ];
    ]
