(* Tests for basalt.net: endpoints, the real-time event loop, and an
   end-to-end UDP overlay on the loopback interface. *)

module Endpoint = Basalt_net.Endpoint
module Event_loop = Basalt_net.Event_loop
module Udp_node = Basalt_net.Udp_node

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Endpoint --- *)

let endpoint_parse () =
  (match Endpoint.of_string "127.0.0.1:4001" with
  | Ok e ->
      Alcotest.(check string) "round trip" "127.0.0.1:4001"
        (Endpoint.to_string e)
  | Error msg -> Alcotest.fail msg);
  check_bool "missing port" true
    (Result.is_error (Endpoint.of_string "127.0.0.1"));
  check_bool "bad port" true
    (Result.is_error (Endpoint.of_string "127.0.0.1:zzz"));
  check_bool "port range" true
    (Result.is_error (Endpoint.of_string "127.0.0.1:70000"))

let endpoint_node_id_round_trip () =
  List.iter
    (fun s ->
      match Endpoint.of_string s with
      | Ok e ->
          let e' = Endpoint.of_node_id (Endpoint.to_node_id e) in
          check_bool ("round trip " ^ s) true (Endpoint.equal e e')
      | Error msg -> Alcotest.fail msg)
    [ "127.0.0.1:4001"; "10.255.0.42:65535"; "192.168.1.1:1"; "0.0.0.0:0" ]

let endpoint_ids_distinct () =
  let nid s =
    match Endpoint.of_string s with
    | Ok e -> Basalt_proto.Node_id.to_int (Endpoint.to_node_id e)
    | Error m -> Alcotest.fail m
  in
  check_bool "ports distinguish" true
    (nid "127.0.0.1:4001" <> nid "127.0.0.1:4002");
  check_bool "hosts distinguish" true
    (nid "127.0.0.1:4001" <> nid "127.0.0.2:4001")

let endpoint_sockaddr () =
  let e = Endpoint.make "127.0.0.1" 9999 in
  match Endpoint.of_sockaddr (Endpoint.to_sockaddr e) with
  | Ok e' -> check_bool "sockaddr round trip" true (Endpoint.equal e e')
  | Error m -> Alcotest.fail m

(* --- Event_loop --- *)

let loop_timers_fire () =
  let loop = Event_loop.create ~clock:Unix.gettimeofday () in
  let fired = ref [] in
  Event_loop.schedule loop ~delay:0.02 (fun () -> fired := "b" :: !fired);
  Event_loop.schedule loop ~delay:0.005 (fun () -> fired := "a" :: !fired);
  Event_loop.run_for loop 0.08;
  Alcotest.(check (list string)) "order" [ "b"; "a" ] !fired

let loop_every_fires_repeatedly () =
  let loop = Event_loop.create ~clock:Unix.gettimeofday () in
  let count = ref 0 in
  Event_loop.every loop ~interval:0.01 (fun () -> incr count);
  Event_loop.run_for loop 0.12;
  check_bool (Printf.sprintf "fired repeatedly (%d)" !count) true (!count >= 5)

let loop_stop () =
  let loop = Event_loop.create ~clock:Unix.gettimeofday () in
  let count = ref 0 in
  Event_loop.every loop ~interval:0.005 (fun () ->
      incr count;
      if !count = 3 then Event_loop.stop loop);
  let t0 = Unix.gettimeofday () in
  Event_loop.run_for loop 5.0;
  check_bool "stopped early" true (Unix.gettimeofday () -. t0 < 1.0);
  check_int "stopped at 3" 3 !count

let loop_fd_callback () =
  let loop = Event_loop.create ~clock:Unix.gettimeofday () in
  let r, w = Unix.pipe () in
  Unix.set_nonblock r;
  let got = Buffer.create 8 in
  Event_loop.on_readable loop r (fun () ->
      let buf = Bytes.create 16 in
      match Unix.read r buf 0 16 with
      | len -> Buffer.add_subbytes got buf 0 len
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  Event_loop.schedule loop ~delay:0.01 (fun () ->
      ignore (Unix.write_substring w "ping" 0 4));
  Event_loop.run_for loop 0.08;
  Event_loop.remove_fd loop r;
  Unix.close r;
  Unix.close w;
  Alcotest.(check string) "data received via loop" "ping" (Buffer.contents got)

(* The loop's clock is injected, so timers can be driven deterministically
   by a virtual clock: advance time by hand, then run the due timers. *)
let loop_virtual_clock () =
  let vtime = ref 0.0 in
  let loop = Event_loop.create ~clock:(fun () -> !vtime) () in
  let fired = ref [] in
  Event_loop.schedule loop ~delay:1.0 (fun () -> fired := "once" :: !fired);
  Event_loop.every loop ~interval:2.0 (fun () -> fired := "tick" :: !fired);
  Event_loop.run_due_timers loop;
  Alcotest.(check (list string)) "nothing due at t=0" [] !fired;
  vtime := 1.0;
  Event_loop.run_due_timers loop;
  Alcotest.(check (list string)) "one-shot at t=1" [ "once" ] !fired;
  vtime := 2.0;
  Event_loop.run_due_timers loop;
  Alcotest.(check (list string))
    "periodic at t=2" [ "tick"; "once" ] !fired;
  vtime := 6.0;
  Event_loop.run_due_timers loop;
  Alcotest.(check (list string))
    "periodic catches up one tick per run" [ "tick"; "tick"; "once" ] !fired

(* --- Frame codec --- *)

module Frame = Basalt_net.Frame
module Message = Basalt_proto.Message
module Node_id = Basalt_proto.Node_id

let frame_round_trip () =
  let sender = Node_id.of_int 12345 in
  let msg = Message.Push (Array.init 5 Node_id.of_int) in
  let frame = Frame.encode ~sender msg in
  let d = Frame.Decoder.create () in
  match Frame.Decoder.feed d frame ~off:0 ~len:(Bytes.length frame) with
  | [ Frame.Decoder.Frame (s, Message.Push ids) ] ->
      check_int "sender" 12345 (Node_id.to_int s);
      check_int "payload" 5 (Array.length ids);
      check_int "buffer drained" 0 (Frame.Decoder.buffered d)
  | _ -> Alcotest.fail "expected one push frame"

let frame_byte_by_byte () =
  let sender = Node_id.of_int 7 in
  let msgs =
    [ Message.Pull_request; Message.Push_id (Node_id.of_int 9);
      Message.Pull_reply (Array.init 3 Node_id.of_int) ]
  in
  let stream =
    Bytes.concat Bytes.empty (List.map (Frame.encode ~sender) msgs)
  in
  let d = Frame.Decoder.create () in
  let received = ref [] in
  Bytes.iter
    (fun c ->
      let one = Bytes.make 1 c in
      List.iter
        (function
          | Frame.Decoder.Frame (_, m) -> received := m :: !received
          | Frame.Decoder.Corrupt e -> Alcotest.fail e)
        (Frame.Decoder.feed d one ~off:0 ~len:1))
    stream;
  check_int "all frames recovered" 3 (List.length !received);
  Alcotest.(check (list string))
    "kinds in order"
    (List.map Message.kind msgs)
    (List.map Message.kind (List.rev !received))

let frame_rejects_oversize () =
  let d = Frame.Decoder.create () in
  let evil = Bytes.create 4 in
  Bytes.set_int32_be evil 0 (Int32.of_int (Frame.max_frame + 1));
  (match Frame.Decoder.feed d evil ~off:0 ~len:4 with
  | [ Frame.Decoder.Corrupt _ ] -> ()
  | _ -> Alcotest.fail "expected corrupt");
  (* decoder stays poisoned *)
  match Frame.Decoder.feed d (Bytes.create 1) ~off:0 ~len:1 with
  | [ Frame.Decoder.Corrupt _ ] -> ()
  | _ -> Alcotest.fail "decoder should stay corrupt"

let frame_rejects_bad_payload () =
  let good = Frame.encode ~sender:(Node_id.of_int 1) Message.Pull_request in
  Bytes.set_uint8 good 12 0x00 (* clobber the wire magic *);
  let d = Frame.Decoder.create () in
  match Frame.Decoder.feed d good ~off:0 ~len:(Bytes.length good) with
  | [ Frame.Decoder.Corrupt _ ] -> ()
  | _ -> Alcotest.fail "expected corrupt payload"

(* --- End-to-end TCP overlay --- *)

module Tcp_node = Basalt_net.Tcp_node

let tcp_overlay_converges () =
  let loop = Event_loop.create ~clock:Unix.gettimeofday () in
  let n = 6 in
  let config =
    Basalt_core.Config.make ~v:8 ~k:2 ~tau:0.04 ~rho:(2.0 /. 0.04) ()
  in
  let probes =
    Array.init n (fun i ->
        Tcp_node.create ~config ~loop
          ~listen:(Endpoint.make "127.0.0.1" 0)
          ~bootstrap:[] ~seed:(3000 + i) ())
  in
  let endpoints = Array.map Tcp_node.endpoint probes in
  Array.iter Tcp_node.close probes;
  let nodes =
    Array.init n (fun i ->
        Tcp_node.create ~config ~loop ~listen:endpoints.(i)
          ~bootstrap:[ endpoints.((i + 1) mod n) ]
          ~seed:(4000 + i) ())
  in
  Event_loop.run_for loop 1.2;
  Array.iteri
    (fun i node ->
      let stats = Tcp_node.stats node in
      check_bool
        (Printf.sprintf "node %d exchanged frames (%d in / %d out)" i
           stats.Tcp_node.frames_in stats.Tcp_node.frames_out)
        true
        (stats.Tcp_node.frames_in > 0 && stats.Tcp_node.frames_out > 0);
      let distinct =
        List.sort_uniq compare (List.map Endpoint.to_string (Tcp_node.view node))
      in
      check_bool
        (Printf.sprintf "node %d discovered peers beyond bootstrap (%d)" i
           (List.length distinct))
        true
        (List.length distinct > 1))
    nodes;
  Array.iter Tcp_node.close nodes

(* --- End-to-end UDP overlay --- *)

let localhost port = Endpoint.make "127.0.0.1" port

(* A hostile datagram must be counted and ignored, not crash the node. *)
let udp_garbage_counted () =
  let loop = Event_loop.create ~clock:Unix.gettimeofday () in
  let node =
    Udp_node.create
      ~config:(Basalt_core.Config.make ~v:4 ~k:1 ~tau:0.05 ())
      ~loop ~listen:(localhost 0) ~bootstrap:[] ~seed:1 ()
  in
  let target = Endpoint.to_sockaddr (Udp_node.endpoint node) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  let garbage = Bytes.of_string "definitely not a basalt datagram" in
  ignore (Unix.sendto sock garbage 0 (Bytes.length garbage) [] target);
  (* A truncated-but-magic-correct datagram too. *)
  let half = Bytes.sub (Basalt_codec.Wire.encode (Message.Push [| Node_id.of_int 1 |])) 0 7 in
  ignore (Unix.sendto sock half 0 (Bytes.length half) [] target);
  Event_loop.run_for loop 0.2;
  Unix.close sock;
  let stats = Udp_node.stats node in
  check_int "both datagrams arrived" 2 stats.Udp_node.datagrams_in;
  check_int "both rejected by the codec" 2 stats.Udp_node.decode_errors;
  check_int "view untouched" 0 (List.length (Udp_node.view node));
  Udp_node.close node

(* Port-0 binds must never share an ephemeral port: with SO_REUSEADDR
   set, Linux handed the same port to two of 512 sockets in nearly
   every trial, so nodes that probe for free ports collided. *)
let udp_port_zero_binds_distinct () =
  let loop = Event_loop.create ~clock:Unix.gettimeofday () in
  let config = Basalt_core.Config.make ~v:4 ~k:1 ~tau:1.0 () in
  let nodes =
    List.init 512 (fun i ->
        Udp_node.create ~config ~loop ~listen:(localhost 0) ~bootstrap:[]
          ~seed:i ())
  in
  let ports =
    List.map (fun node -> (Udp_node.endpoint node).Endpoint.port) nodes
  in
  List.iter Udp_node.close nodes;
  check_int "512 distinct endpoints" 512
    (List.length (List.sort_uniq Int.compare ports))

(* --- Pull retry & self-injection --- *)

(* An endpoint that once existed but has nothing listening behind it. *)
let dead_endpoint () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let ep =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, port) -> localhost port
    | _ -> assert false
  in
  Unix.close sock;
  ep

(* The retry policy runs on event-loop timers, so under a virtual clock
   the whole retransmission schedule is deterministic in virtual time:
   attempt i fires after min(max_timeout, timeout * backoff^i). *)
let udp_retry_backoff_capped () =
  let vtime = ref 0.0 in
  let loop = Event_loop.create ~clock:(fun () -> !vtime) () in
  let retry =
    {
      Udp_node.timeout = 1.0;
      backoff = 2.0;
      max_timeout = 8.0;
      max_attempts = 3;
      jitter = 0.0;
    }
  in
  let node =
    Udp_node.create
      ~config:
        (Basalt_core.Config.make ~v:4 ~k:1 ~tau:1000.0 ~evict_after_rounds:50
           ())
      ~retry ~loop ~listen:(localhost 0)
      ~bootstrap:[ dead_endpoint () ]
      ~seed:5 ()
  in
  let advance t =
    vtime := t;
    Event_loop.run_due_timers loop
  in
  let retries () = (Udp_node.stats node).Udp_node.retries in
  advance 0.5 (* round 1 fires near t=0: one pull + one push *);
  let out0 = (Udp_node.stats node).Udp_node.datagrams_out in
  check_int "round sent pull and push" 2 out0;
  check_int "no retries before the timeout" 0 (retries ());
  advance 2.0 (* attempt 0: timeout * backoff^0 = 1s after the pull *);
  check_int "first retransmission" 1 (retries ());
  advance 5.0 (* attempt 1: +2s *);
  check_int "second retransmission" 2 (retries ());
  advance 10.0 (* attempt 2: +4s *);
  check_int "third retransmission" 3 (retries ());
  advance 500.0 (* budget spent: the pending pull is abandoned *);
  check_int "capped at max_attempts" 3 (retries ());
  check_int "every retry hit the wire" (out0 + 3)
    (Udp_node.stats node).Udp_node.datagrams_out;
  Udp_node.close node

let udp_retry_cleared_by_reply () =
  let loop = Event_loop.create ~clock:Unix.gettimeofday () in
  let config =
    Basalt_core.Config.make ~v:8 ~k:2 ~tau:0.04 ~rho:(2.0 /. 0.04) ()
  in
  (* Timeouts far beyond the test duration: any retry we observe would
     have to be a pull whose reply failed to clear the pending entry. *)
  let retry =
    { Udp_node.default_retry with timeout = 10.0; max_timeout = 10.0 }
  in
  let a =
    Udp_node.create ~config ~retry ~loop ~listen:(localhost 0) ~bootstrap:[]
      ~seed:11 ()
  in
  let b =
    Udp_node.create ~config ~retry ~loop ~listen:(localhost 0)
      ~bootstrap:[ Udp_node.endpoint a ]
      ~seed:12 ()
  in
  Event_loop.run_for loop 0.5;
  List.iter
    (fun (name, node) ->
      let stats = Udp_node.stats node in
      check_bool (name ^ " exchanged datagrams") true
        (stats.Udp_node.datagrams_in > 0 && stats.Udp_node.datagrams_out > 0);
      check_int (name ^ " never retried") 0 stats.Udp_node.retries)
    [ ("a", a); ("b", b) ];
  Udp_node.close a;
  Udp_node.close b

let udp_inject_loss_drops () =
  let vtime = ref 0.0 in
  let loop = Event_loop.create ~clock:(fun () -> !vtime) () in
  let config = Basalt_core.Config.make ~v:4 ~k:1 ~tau:1.0 () in
  let mk ~inject_loss seed =
    Udp_node.create ~config ~retry:Udp_node.no_retry ~inject_loss ~loop
      ~listen:(localhost 0)
      ~bootstrap:[ dead_endpoint () ]
      ~seed ()
  in
  let silent = mk ~inject_loss:1.0 3 in
  let noisy = mk ~inject_loss:0.0 3 in
  List.iter
    (fun t ->
      vtime := t;
      Event_loop.run_due_timers loop)
    [ 1.1; 2.1; 3.1 ];
  check_int "loss=1 puts nothing on the wire" 0
    (Udp_node.stats silent).Udp_node.datagrams_out;
  check_bool "loss=0 control transmits" true
    ((Udp_node.stats noisy).Udp_node.datagrams_out > 0);
  Udp_node.close silent;
  Udp_node.close noisy

let udp_inject_delay_postpones () =
  let vtime = ref 0.0 in
  let loop = Event_loop.create ~clock:(fun () -> !vtime) () in
  let config = Basalt_core.Config.make ~v:4 ~k:1 ~tau:1000.0 () in
  let node =
    Udp_node.create ~config ~retry:Udp_node.no_retry ~inject_delay:5.0 ~loop
      ~listen:(localhost 0)
      ~bootstrap:[ dead_endpoint () ]
      ~seed:7 ()
  in
  vtime := 0.5;
  Event_loop.run_due_timers loop (* round fired; both sends are in flight *);
  check_int "nothing on the wire yet" 0
    (Udp_node.stats node).Udp_node.datagrams_out;
  vtime := 6.0;
  Event_loop.run_due_timers loop (* every deferred transmission is due *);
  check_int "transmitted after the injected delay" 2
    (Udp_node.stats node).Udp_node.datagrams_out;
  Udp_node.close node

(* Spin up [n] real UDP nodes in one process, bootstrap them in a ring of
   overlapping neighbor lists, run the protocol for a little while of
   wall-clock time, and check that views converge to a rich set of
   overlay-wide peers. *)
let udp_overlay_converges () =
  let loop = Event_loop.create ~clock:Unix.gettimeofday () in
  let n = 8 in
  (* Bind with port 0 first so the OS assigns free ports. *)
  let config =
    Basalt_core.Config.make ~v:8 ~k:2 ~tau:0.03 ~rho:(2.0 /. 0.03) ()
  in
  (* rho above gives refresh interval k/rho ~ 0.03s: fast sampling for a
     fast test. *)
  let nodes =
    Array.init n (fun i ->
        Udp_node.create ~config ~loop ~listen:(localhost 0) ~bootstrap:[]
          ~seed:(1000 + i) ())
  in
  (* Every node learns two neighbors' real endpoints as bootstrap via a
     direct state injection: simplest is to create fresh nodes knowing
     the already-bound endpoints. *)
  let endpoints = Array.to_list (Array.map Udp_node.endpoint nodes) in
  Array.iter Udp_node.close nodes;
  let nodes =
    Array.init n (fun i ->
        let bootstrap =
          [
            List.nth endpoints ((i + 1) mod n);
            List.nth endpoints ((i + 2) mod n);
          ]
        in
        Udp_node.create ~config ~loop ~listen:(List.nth endpoints i) ~bootstrap
          ~seed:(2000 + i) ())
  in
  Event_loop.run_for loop 1.2;
  (* Each node must have discovered peers beyond its bootstrap pair and
     exchanged real datagrams. *)
  Array.iteri
    (fun i node ->
      let stats = Udp_node.stats node in
      check_bool
        (Printf.sprintf "node %d sent datagrams (%d)" i stats.Udp_node.datagrams_out)
        true
        (stats.Udp_node.datagrams_out > 0);
      check_bool
        (Printf.sprintf "node %d received datagrams (%d)" i stats.Udp_node.datagrams_in)
        true
        (stats.Udp_node.datagrams_in > 0);
      check_int "no decode errors" 0 stats.Udp_node.decode_errors;
      let distinct_peers =
        List.sort_uniq compare (List.map Endpoint.to_string (Udp_node.view node))
      in
      check_bool
        (Printf.sprintf "node %d discovered > 2 peers (%d)" i
           (List.length distinct_peers))
        true
        (List.length distinct_peers > 2))
    nodes;
  (* The sampling service produced samples that are live overlay members. *)
  let all = List.map Endpoint.to_string endpoints in
  Array.iter
    (fun node ->
      let stream = Udp_node.samples node in
      check_bool "samples emitted" true
        (Basalt_core.Sample_stream.total stream > 0);
      Basalt_core.Sample_stream.iter
        (fun id ->
          let e = Endpoint.to_string (Endpoint.of_node_id id) in
          check_bool ("sample is a real endpoint: " ^ e) true (List.mem e all))
        stream)
    nodes;
  Array.iter Udp_node.close nodes

(* --- Metrics exposition --- *)

module Obs = Basalt_obs.Obs
module Metrics_server = Basalt_net.Metrics_server

let ep s =
  match Endpoint.of_string s with Ok e -> e | Error m -> Alcotest.fail m

let read_all fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ();
  Buffer.contents buf

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let metrics_server_serves_prometheus () =
  let loop = Event_loop.create ~clock:Unix.gettimeofday () in
  let obs = Obs.create () in
  let c = Obs.counter obs "net.datagrams_in" in
  Obs.Counter.add c 7;
  let srv =
    Metrics_server.serve ~loop ~listen:(ep "127.0.0.1:0")
      ~render:(fun () -> Obs.render_prometheus obs)
      ()
  in
  let addr = Metrics_server.endpoint srv in
  let client = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect client (Endpoint.to_sockaddr addr);
  let req = "GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n" in
  ignore (Unix.write_substring client req 0 (String.length req));
  Event_loop.run_for loop 0.1;
  let response = read_all client in
  Unix.close client;
  check_bool "status line" true
    (contains ~needle:"HTTP/1.0 200 OK" response);
  check_bool "content type" true
    (contains ~needle:"text/plain; version=0.0.4" response);
  check_bool "counter exposed" true
    (contains ~needle:"net_datagrams_in 7\n" response);
  check_int "one request served" 1 (Metrics_server.requests srv);
  (* A second scrape observes the updated value: render runs at scrape
     time, not at serve time. *)
  Obs.Counter.add c 5;
  let client2 = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect client2 (Endpoint.to_sockaddr addr);
  ignore (Unix.write_substring client2 req 0 (String.length req));
  Event_loop.run_for loop 0.1;
  let response2 = read_all client2 in
  Unix.close client2;
  check_bool "updated counter" true
    (contains ~needle:"net_datagrams_in 12\n" response2);
  check_int "two requests served" 2 (Metrics_server.requests srv);
  Metrics_server.close srv

let metrics_server_close_is_idempotent () =
  let loop = Event_loop.create ~clock:Unix.gettimeofday () in
  let srv =
    Metrics_server.serve ~loop ~listen:(ep "127.0.0.1:0")
      ~render:(fun () -> "x")
      ()
  in
  Metrics_server.close srv;
  Metrics_server.close srv

let () =
  Alcotest.run "net"
    [
      ( "endpoint",
        [
          Alcotest.test_case "parse" `Quick endpoint_parse;
          Alcotest.test_case "node id round trip" `Quick
            endpoint_node_id_round_trip;
          Alcotest.test_case "ids distinct" `Quick endpoint_ids_distinct;
          Alcotest.test_case "sockaddr" `Quick endpoint_sockaddr;
        ] );
      ( "event_loop",
        [
          Alcotest.test_case "timers fire in order" `Quick loop_timers_fire;
          Alcotest.test_case "every repeats" `Quick loop_every_fires_repeatedly;
          Alcotest.test_case "stop" `Quick loop_stop;
          Alcotest.test_case "fd callback" `Quick loop_fd_callback;
          Alcotest.test_case "virtual clock" `Quick loop_virtual_clock;
        ] );
      ( "frame",
        [
          Alcotest.test_case "round trip" `Quick frame_round_trip;
          Alcotest.test_case "byte-by-byte reassembly" `Quick
            frame_byte_by_byte;
          Alcotest.test_case "rejects oversize" `Quick frame_rejects_oversize;
          Alcotest.test_case "rejects bad payload" `Quick
            frame_rejects_bad_payload;
        ] );
      ( "udp",
        [
          Alcotest.test_case "port-0 binds are distinct" `Quick
            udp_port_zero_binds_distinct;
          Alcotest.test_case "garbage datagrams counted" `Quick
            udp_garbage_counted;
          Alcotest.test_case "retry backoff is capped and deterministic"
            `Quick udp_retry_backoff_capped;
          Alcotest.test_case "reply cancels pending retries" `Quick
            udp_retry_cleared_by_reply;
          Alcotest.test_case "self-injected loss drops datagrams" `Quick
            udp_inject_loss_drops;
          Alcotest.test_case "self-injected delay postpones datagrams" `Quick
            udp_inject_delay_postpones;
          Alcotest.test_case "overlay converges end-to-end" `Slow
            udp_overlay_converges;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "overlay converges end-to-end" `Slow
            tcp_overlay_converges;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "serves prometheus text" `Quick
            metrics_server_serves_prometheus;
          Alcotest.test_case "close is idempotent" `Quick
            metrics_server_close_is_idempotent;
        ] );
    ]
