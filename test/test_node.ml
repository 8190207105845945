(* Tests for basalt.node: the one composition of sampler, application
   layer and sample stream that the simulator, the UDP daemon and the
   Avalanche networks share.  A recording fake sampler and app log every
   call in order, so each test asserts who saw what, and when. *)

module Node = Basalt_assembly.Node
module Rps = Basalt_proto.Rps
module Message = Basalt_proto.Message
module Node_id = Basalt_proto.Node_id
module Sample_stream = Basalt_core.Sample_stream

let id = Node_id.of_int
let ids = Alcotest.(list int)
let calls = Alcotest.(list string)

(* One shared call log; [samples] is what each sampling tick emits. *)
let fake_sampler log ~samples =
  {
    (Rps.null (id 0)) with
    Rps.protocol = "fake";
    on_message =
      (fun ~from _ ->
        log :=
          !log @ [ Printf.sprintf "sampler:msg:%d" (Node_id.to_int from) ]);
    on_round = (fun () -> log := !log @ [ "sampler:round" ]);
    sample_tick =
      (fun () ->
        log := !log @ [ "sampler:tick" ];
        samples);
  }

(* An app that consumes broadcast frames only, recording everything;
   at each tick it also records how many samples the node's stream
   holds, read through [retained]. *)
let fake_app log ~retained =
  {
    Node.app_deliver =
      (fun ~from msg ->
        let consumed =
          match msg with
          | Message.Gossip _ | Ihave _ | Iwant _ | Graft | Prune -> true
          | Pull_request | Pull_reply _ | Push _ | Push_id _ -> false
        in
        log :=
          !log
          @ [ Printf.sprintf "app:msg:%d:%b" (Node_id.to_int from) consumed ];
        consumed);
    app_tick =
      (fun ps ->
        log :=
          !log
          @ [
              Printf.sprintf "app:tick:%d:retained=%d" (List.length ps)
                (!retained ());
            ]);
    app_round = (fun () -> log := !log @ [ "app:round" ]);
  }

let make ?(samples = []) ~with_app () =
  let log = ref [] in
  let retained = ref (fun () -> 0) in
  let app = if with_app then Some (fake_app log ~retained) else None in
  let node =
    Node.create ?app
      ~stream:(Sample_stream.create ~capacity:8)
      (fake_sampler log ~samples)
  in
  retained := (fun () -> Sample_stream.retained (Node.stream node));
  (node, log)

let deliver_app_first () =
  let node, log = make ~with_app:true () in
  Node.deliver node ~from:(id 3) Message.Pull_request;
  Alcotest.check calls "app sees it, then the sampler"
    [ "app:msg:3:false"; "sampler:msg:3" ]
    !log

let consumed_never_reaches_sampler () =
  let node, log = make ~with_app:true () in
  Node.deliver node ~from:(id 4) Message.Graft;
  Alcotest.check calls "consumed by the app only" [ "app:msg:4:true" ] !log

let null_app_passes_through () =
  let node, log = make ~with_app:false () in
  Node.deliver node ~from:(id 5) Message.Graft;
  Node.deliver node ~from:(id 6) Message.Pull_request;
  Alcotest.check calls "every frame reaches the sampler"
    [ "sampler:msg:5"; "sampler:msg:6" ]
    !log

let round_sampler_then_app () =
  let node, log = make ~with_app:true () in
  Node.round node;
  Alcotest.check calls "sampler round, then heartbeat"
    [ "sampler:round"; "app:round" ]
    !log

let tick_stream_then_app () =
  let samples = [ id 1; id 2; id 3 ] in
  let node, log = make ~samples ~with_app:true () in
  let got = Node.tick node in
  (* The app's record shows the stream already held all three. *)
  Alcotest.check calls "tick, stream push, then app"
    [ "sampler:tick"; "app:tick:3:retained=3" ]
    !log;
  Alcotest.check ids "returned to the caller" [ 1; 2; 3 ]
    (List.map Node_id.to_int got);
  Alcotest.check ids "the stream holds the same list, newest first" [ 3; 2; 1 ]
    (List.map Node_id.to_int (Sample_stream.recent (Node.stream node) 8))

let () =
  Alcotest.run "node"
    [
      ( "node",
        [
          Alcotest.test_case "deliver: app first" `Quick deliver_app_first;
          Alcotest.test_case "deliver: consumed frames skip the sampler" `Quick
            consumed_never_reaches_sampler;
          Alcotest.test_case "deliver: null app passes through" `Quick
            null_app_passes_through;
          Alcotest.test_case "round: sampler then app" `Quick
            round_sampler_then_app;
          Alcotest.test_case "tick: stream then app" `Quick
            tick_stream_then_app;
        ] );
    ]
