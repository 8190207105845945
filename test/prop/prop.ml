module Test = QCheck2.Test
module Gen = QCheck2.Gen

let default_seed_value = 0xBA5A17

let env_int var =
  Option.bind (Sys.getenv_opt var) (fun s -> int_of_string_opt (String.trim s))

let default_seed () =
  Option.value (env_int "BASALT_CHECK_SEED") ~default:default_seed_value

(* Alcotest's -q / --quick-tests reaches us through the test binary's
   argv: properties stay `Quick (so they still run) on a cut budget. *)
let quick_mode =
  lazy
    (Array.exists
       (fun a -> String.equal a "-q" || String.equal a "--quick-tests")
       Sys.argv)

let budget ?(quick = Lazy.force quick_mode) count =
  let count =
    match env_int "BASALT_CHECK_COUNT" with
    | Some n when n > count -> n
    | _ -> count
  in
  if quick then max 10 (count / 10) else count

(* FNV-1a over "suite/name", mixed with the base seed: every property
   owns an independent stream, and renaming one re-rolls only its own
   cases. *)
let derive_seed ~seed ~suite ~name =
  let h =
    String.fold_left
      (fun h c ->
        Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
      0xcbf29ce484222325L (suite ^ "/" ^ name)
  in
  Int64.to_int (Basalt_prng.Splitmix64.mix (Int64.logxor h (Int64.of_int seed)))
  land max_int

type failure = {
  suite : string;
  property : string;
  seed : int;
  shrink_steps : int;
  counterexample : string;
  reason : string;
}

let report f =
  String.concat "\n"
    [
      "property failed";
      Printf.sprintf "  suite:          %s" f.suite;
      Printf.sprintf "  property:       %s" f.property;
      Printf.sprintf "  seed:           %d" f.seed;
      Printf.sprintf "  shrink steps:   %d" f.shrink_steps;
      Printf.sprintf "  reason:         %s" f.reason;
      Printf.sprintf "  counterexample: %s" f.counterexample;
      Printf.sprintf "  replay:         BASALT_CHECK_SEED=%d <this test binary>"
        f.seed;
    ]

let dump f =
  match Sys.getenv_opt "BASALT_CHECK_DIR" with
  | Some dir when Sys.file_exists dir && Sys.is_directory dir ->
      let slug = String.map (function
        | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_') as c -> c
        | _ -> '-')
      in
      let file =
        Printf.sprintf "%s.%s.seed%d.txt" (slug f.suite) (slug f.property)
          f.seed
      in
      Out_channel.with_open_text (Filename.concat dir file) (fun oc ->
          output_string oc (report f ^ "\n"))
  | _ -> ()

let run ?seed ~suite (Test.Test cell) =
  let seed = Option.value seed ~default:(default_seed ()) in
  let property = Test.get_name cell in
  let cell =
    Test.make_cell ~name:property
      ~count:(budget (Test.get_count cell))
      ?print:(Test.get_print_opt cell) (Test.get_gen cell) (Test.get_law cell)
  in
  let rand =
    (* lint: allow D1 — QCheck2 draws from a Random.State; this one is
       seeded from (suite, property, BASALT_CHECK_SEED) alone, so a run
       replays the same cases and shrinks. *)
    Random.State.make [| derive_seed ~seed ~suite ~name:property |]
  in
  let result = Test.check_cell ~rand cell in
  let fail ~shrink_steps ~counterexample ~reason =
    let f =
      { suite; property; seed; shrink_steps; counterexample; reason }
    in
    dump f;
    Error f
  in
  let instance (c : _ QCheck2.TestResult.counter_ex) =
    Test.print_instance cell c.instance
  in
  match QCheck2.TestResult.get_state result with
  | Success -> Ok (QCheck2.TestResult.get_count result)
  | Failed { instances = c :: _ } ->
      fail ~shrink_steps:c.shrink_steps ~counterexample:(instance c)
        ~reason:"returned false"
  | Failed { instances = [] } -> assert false
  | Error { instance = c; exn; _ } ->
      fail ~shrink_steps:c.shrink_steps ~counterexample:(instance c)
        ~reason:(Printexc.to_string exn)
  | Failed_other { msg } ->
      fail ~shrink_steps:0 ~counterexample:"<generator raised>" ~reason:msg

let case ~suite (Test.Test cell as t) =
  Alcotest.test_case (Test.get_name cell) `Quick (fun () ->
      match run ~suite t with Ok _ -> () | Error f -> Alcotest.fail (report f))

let suite name tests = (name, List.map (case ~suite:name) tests)

let bytes_hex b =
  Printf.sprintf "%d bytes: %s" (Bytes.length b)
    (String.concat ""
       (List.init (Bytes.length b) (fun i ->
            Printf.sprintf "%02x" (Bytes.get_uint8 b i))))

module Gens = struct
  module Node_id = Basalt_proto.Node_id
  module Message = Basalt_proto.Message
  module Link = Basalt_engine.Link
  module Obs = Basalt_obs.Obs

  let node_id ~max = Gen.map Node_id.of_int (Gen.int_bound max)

  let max_wire_id = (1 lsl 48) - 1

  let mid ?(max_id = max_wire_id) () =
    Gen.map2
      (fun origin seqno -> { Message.origin; seqno })
      (node_id ~max:max_id) (Gen.int_bound 0xFFFF_FFFF)

  let message ?(max_ids = 40) () =
    let ids =
      Gen.array_size (Gen.int_bound max_ids) (node_id ~max:max_wire_id)
    in
    let mids = Gen.array_size (Gen.int_bound max_ids) (mid ()) in
    Gen.oneof
      [
        Gen.return Message.Pull_request;
        Gen.map (fun v -> Message.Pull_reply v) ids;
        Gen.map (fun v -> Message.Push v) ids;
        Gen.map (fun i -> Message.Push_id i) (node_id ~max:max_wire_id);
        Gen.map3
          (fun mid hops payload -> Message.Gossip { mid; hops; payload })
          (mid ()) (Gen.int_bound 0xFFFF)
          (Gen.bytes_size (Gen.int_bound 64));
        Gen.map (fun ms -> Message.Ihave ms) mids;
        Gen.map (fun ms -> Message.Iwant ms) mids;
        Gen.return Message.Graft;
        Gen.return Message.Prune;
      ]

  let latency =
    Gen.oneof
      [
        Gen.return Link.Latency.Zero;
        Gen.map2
          (fun a b ->
            Link.Latency.Uniform { lo = Float.min a b; hi = Float.max a b })
          (Gen.float_range 0. 5.) (Gen.float_range 0. 5.);
      ]

  let loss =
    Gen.oneof
      [
        Gen.return Link.Loss.None;
        Gen.map (fun p -> Link.Loss.Bernoulli p) (Gen.float_range 0. 0.9);
      ]

  type schedule = {
    nodes : int;
    registered : bool list;
    sends : (float * int * int) list;
    horizon : float;
  }

  let schedule ~max_nodes ~max_sends =
    Gen.bind (Gen.int_range 1 max_nodes) (fun nodes ->
        let send =
          Gen.triple (Gen.float_range 0. 100.)
            (Gen.int_bound (nodes - 1))
            (Gen.int_bound (nodes - 1))
        in
        Gen.map2
          (fun registered sends ->
            { nodes; registered; sends; horizon = 10_000. })
          (Gen.list_repeat nodes Gen.bool)
          (Gen.list_size (Gen.int_bound max_sends) send))

  (* Dyadic rationals (2m+1) / 2^(e+1): at most 12 significant digits,
     so the registry's %.12g rendering is lossless. *)
  let dyadic =
    Gen.map2
      (fun m e -> (float_of_int m +. 0.5) /. float_of_int (1 lsl e))
      (Gen.int_bound 4096) (Gen.int_bound 8)

  (* Full byte range: escape_json covers control chars and quotes. *)
  let obs_string = Gen.string_size (Gen.int_bound 12)

  let obs_event =
    let value =
      Gen.oneof
        [
          Gen.map (fun n -> Obs.Int n) (Gen.int_range (-100_000) 100_000);
          Gen.map (fun x -> Obs.Float x) dyadic;
          Gen.map (fun s -> Obs.Str s) obs_string;
        ]
    in
    (* The "k" prefix keeps generated keys off the reserved "t"/"ev". *)
    let field = Gen.pair (Gen.map (fun s -> "k" ^ s) obs_string) value in
    Gen.map3
      (fun time name fields -> { Obs.time; name; fields })
      dyadic obs_string
      (Gen.list_size (Gen.int_bound 8) field)
end
