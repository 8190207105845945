(* Tests for basalt.net: endpoints, the real-time event loop, and an
   end-to-end UDP overlay on the loopback interface. *)

module Endpoint = Basalt_net.Endpoint
module Event_loop = Basalt_net.Event_loop
module Udp_node = Basalt_net.Udp_node
module Message = Basalt_proto.Message
module Node_id = Basalt_proto.Node_id

let endpoint_equal a b =
  String.equal (Endpoint.to_string a) (Endpoint.to_string b)

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
          check_bool ("round trip " ^ s) true (endpoint_equal e e')
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
  | Ok e' -> check_bool "sockaddr round trip" true (endpoint_equal e e')
  | Error m -> Alcotest.fail m

(* The first and last identifiers an endpoint packs to, both ways. *)
let endpoint_edges () =
  List.iter
    (fun (s, id) ->
      let e =
        match Endpoint.of_string s with Ok e -> e | Error m -> Alcotest.fail m
      in
      check_int (s ^ " packs") id (Node_id.to_int (Endpoint.to_node_id e));
      Alcotest.(check string)
        (s ^ " unpacks") s
        (Endpoint.to_string (Endpoint.of_node_id (Node_id.of_int id))))
    [ ("0.0.0.0:0", 0); ("255.255.255.255:65535", (1 lsl 48) - 1) ]

(* An identifier of 2^48 or more names no endpoint: unpacking it raises
   rather than keeping the low 48 bits. *)
let endpoint_rejects_wide_ids () =
  List.iter
    (fun x ->
      let id = Node_id.of_int x in
      check_bool (Printf.sprintf "%#x is not valid" x) false
        (Endpoint.valid_id id);
      Alcotest.check_raises (Printf.sprintf "%#x raises" x)
        (Invalid_argument "Endpoint.of_node_id: identifier above 48 bits")
        (fun () -> ignore (Endpoint.of_node_id id)))
    [ 1 lsl 48; (1 lsl 48) lor 0x7F0000011F41; max_int ]

(* The string-based conversions the endpoint module once used, kept
   here as the reference for the one-pass ones. *)
let reference_of_node_id x =
  {
    Endpoint.addr =
      Unix.inet_addr_of_string
        (Printf.sprintf "%d.%d.%d.%d"
           ((x lsr 40) land 0xFF)
           ((x lsr 32) land 0xFF)
           ((x lsr 24) land 0xFF)
           ((x lsr 16) land 0xFF));
    port = x land 0xFFFF;
  }

let reference_to_node_id (e : Endpoint.t) =
  match String.split_on_char '.' (Unix.string_of_inet_addr e.Endpoint.addr) with
  | [ a; b; c; d ] ->
      (int_of_string a lsl 40)
      lor (int_of_string b lsl 32)
      lor (int_of_string c lsl 24)
      lor (int_of_string d lsl 16)
      lor e.Endpoint.port
  | _ -> Alcotest.fail "not an IPv4 address"

let prop_endpoint_conversions =
  QCheck2.Test.make ~name:"id conversions match the reference" ~count:1000
    ~print:(Printf.sprintf "%#x")
    (QCheck2.Gen.int_bound ((1 lsl 48) - 1))
    (fun x ->
      let id = Node_id.of_int x in
      let e = Endpoint.of_node_id id in
      Node_id.to_int (Endpoint.to_node_id e) = x
      && endpoint_equal e (reference_of_node_id x)
      && reference_to_node_id e = x)

(* A UDP socket bound to a free loopback port, and its endpoint. *)
let peer_socket () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname sock with
  | Unix.ADDR_INET (addr, port) -> (sock, { Endpoint.addr; port })
  | Unix.ADDR_UNIX _ -> assert false

(* One select pass over the loop's sockets: a due timer moves the
   virtual clock [vtime] to the pass's horizon, so [run_for] returns
   after the pass, and the clock is set back after it. *)
let drain_sockets loop vtime =
  let t0 = !vtime in
  Event_loop.schedule loop ~delay:0.0 (fun () -> vtime := t0 +. 1e-6);
  Event_loop.run_for loop 1e-6;
  vtime := t0

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

(* A NaN delay or interval is refused like a negative one: queued, it
   would never come due, and a NaN select timeout raises EINVAL. *)
let loop_rejects_nan () =
  let loop = Event_loop.create ~clock:Unix.gettimeofday () in
  Alcotest.check_raises "nan delay"
    (Invalid_argument "Event_loop.schedule: negative delay") (fun () ->
      Event_loop.schedule loop ~delay:Float.nan ignore);
  Alcotest.check_raises "nan interval"
    (Invalid_argument "Event_loop.every: interval must be > 0") (fun () ->
      Event_loop.every loop ~interval:Float.nan ignore)

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

(* Three sockets on one loop: each readable fd reaches its own callback,
   registering an fd again replaces its callback, and a removed fd is no
   longer dispatched, even when it was reported readable in the same
   pass.  Every callback reads into the loop's shared buffer. *)
let loop_fd_table () =
  (* A virtual clock, so [drain_sockets] is exactly one [select]. *)
  let vtime = ref 0.0 in
  let loop = Event_loop.create ~clock:(fun () -> !vtime) () in
  let peers = Array.init 3 (fun _ -> peer_socket ()) in
  let socks = Array.map fst peers in
  Array.iter Unix.set_nonblock socks;
  let sender = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  let send i tag =
    ignore
      (Unix.sendto sender (Bytes.make 1 tag) 0 1 []
         (Endpoint.to_sockaddr (snd peers.(i))))
  in
  let got = ref [] in
  let buf = Event_loop.buffer loop in
  let register i label =
    Event_loop.on_readable loop socks.(i) (fun () ->
        let rec drain () =
          match Unix.recv socks.(i) buf 0 (Bytes.length buf) [] with
          | n ->
              got := (label ^ ":" ^ Bytes.sub_string buf 0 n) :: !got;
              drain ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ()
        in
        drain ())
  in
  let pass () =
    got := [];
    drain_sockets loop vtime;
    List.sort String.compare !got
  in
  Array.iteri (fun i _ -> register i (string_of_int i)) socks;
  send 0 'a';
  send 1 'b';
  send 2 'c';
  Alcotest.(check (list string))
    "each fd reaches its own callback" [ "0:a"; "1:b"; "2:c" ] (pass ());
  register 1 "new";
  send 0 'd';
  send 1 'e';
  Alcotest.(check (list string))
    "re-registering replaces the callback" [ "0:d"; "new:e" ] (pass ());
  Event_loop.remove_fd loop socks.(2);
  send 2 'f';
  send 0 'g';
  Alcotest.(check (list string)) "a removed fd is not dispatched" [ "0:g" ]
    (pass ());
  (* Socket 2 still holds 'f'; now 0 and 1 each unregister the other,
     so exactly one of them runs. *)
  send 0 'h';
  send 1 'i';
  let fired = ref 0 in
  Event_loop.on_readable loop socks.(0) (fun () ->
      incr fired;
      Event_loop.remove_fd loop socks.(1));
  Event_loop.on_readable loop socks.(1) (fun () ->
      incr fired;
      Event_loop.remove_fd loop socks.(0));
  ignore (pass ());
  check_int "removal takes effect within the pass" 1 !fired;
  Array.iter (Event_loop.remove_fd loop) socks;
  Array.iter Unix.close socks;
  Unix.close sender

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

(* --- End-to-end UDP overlay --- *)

let localhost port = Endpoint.make "127.0.0.1" port

(* A hostile datagram must be counted and ignored, not crash the node:
   free text, a truncated-but-magic-correct frame, and every entry of
   the wire corpus (the empty datagram included). *)
let udp_garbage_counted () =
  let loop = Event_loop.create ~clock:Unix.gettimeofday () in
  let node =
    Udp_node.create
      ~config:(Basalt_core.Config.make ~v:4 ~k:1 ~tau:0.05 ())
      ~loop ~listen:(localhost 0) ~bootstrap:[] ~seed:1 ()
  in
  let target = Endpoint.to_sockaddr (Udp_node.endpoint node) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  let send b = ignore (Unix.sendto sock b 0 (Bytes.length b) [] target) in
  send (Bytes.of_string "definitely not a basalt datagram");
  send
    (Bytes.sub
       (Basalt_codec.Wire.encode (Message.Push [| Node_id.of_int 1 |]))
       0 7);
  let corpus = Wire_corpus.load () in
  List.iter (fun (_, b) -> send b) corpus;
  Event_loop.run_for loop 0.2;
  Unix.close sock;
  let sent = List.length corpus + 2 in
  let stats = Udp_node.stats node in
  check_int "every datagram arrived" sent stats.Udp_node.datagrams_in;
  check_int "every one rejected by the codec" sent
    stats.Udp_node.decode_errors;
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
  let sock, ep = peer_socket () in
  Unix.close sock;
  ep

(* The retry policy runs on event-loop timers, so under a virtual clock
   the whole retransmission schedule is deterministic in virtual time.
   Stepping the clock by 1 ms, attempt i fires 0.25 * 2^i s (stretched
   by at most 10 % jitter) after the previous send: 0.25, 0.5 and 1 s,
   and the pull is given up 2 s after the third retransmission.  Two
   runs from one seed fire at the same instants. *)
let udp_retry_backoff_capped () =
  let schedule () =
    let vtime = ref 0.0 in
    let loop = Event_loop.create ~clock:(fun () -> !vtime) () in
    let node =
      Udp_node.create
        ~config:
          (Basalt_core.Config.make ~v:4 ~k:1 ~tau:1000.0 ~evict_after_rounds:50
             ())
        ~obs:(Basalt_obs.Obs.create ~clock:(fun () -> !vtime) ())
        ~loop ~listen:(localhost 0)
        ~bootstrap:[ dead_endpoint () ]
        ~seed:5 ()
    in
    let out () = (Udp_node.stats node).Udp_node.datagrams_out in
    (* The instants at which the pull was sent, retransmitted three
       times and given up. *)
    let events = ref [] and last = ref (0, 0) in
    for ms = 1 to 6000 do
      vtime := float_of_int ms /. 1000.0;
      Event_loop.run_due_timers loop;
      let now = (out (), Udp_node.pending_pulls node) in
      if now <> !last then events := (!vtime, now) :: !events;
      last := now
    done;
    Udp_node.close node;
    List.rev !events
  in
  let events = schedule () in
  Alcotest.(check (list (pair int int)))
    "pull and push, three retransmissions, then given up"
    [ (2, 1); (3, 1); (4, 1); (5, 1); (5, 0) ]
    (List.map snd events);
  let times = Array.of_list (List.map fst events) in
  List.iteri
    (fun i wait ->
      let gap = times.(i + 1) -. times.(i) in
      check_bool
        (Printf.sprintf "wait %d of %.3f s in [%g, %g]" i gap wait
           ((1.1 *. wait) +. 0.001))
        true
        (gap >= wait && gap <= (1.1 *. wait) +. 0.001))
    [ 0.25; 0.5; 1.0; 2.0 ];
  Alcotest.(check (list (float 0.0))) "same seed, same schedule"
    (Array.to_list times)
    (List.map fst (schedule ()))

(* A pull whose retries are exhausted is given up, and must leave the
   RTT tracker with it: a daemon always runs with a registry, and in a
   churning network it pulls ever more dead peers.  Over 64 silent
   peers, one pull per one-second round, the tracker holds only the
   pulls of the last retry window (under 4.2 s): at most 5. *)
let udp_exhausted_pulls_leave_rtt_tracker () =
  let vtime = ref 0.0 in
  let loop = Event_loop.create ~clock:(fun () -> !vtime) () in
  let node =
    Udp_node.create
      ~config:(Basalt_core.Config.make ~v:64 ~k:1 ~tau:1.0 ())
      ~obs:(Basalt_obs.Obs.create ~clock:(fun () -> !vtime) ())
      ~loop ~listen:(localhost 0)
      ~bootstrap:(List.init 64 (fun _ -> dead_endpoint ()))
      ~seed:3 ()
  in
  let most = ref 0 in
  for step = 1 to 3000 do
    vtime := 0.05 *. float_of_int step;
    Event_loop.run_due_timers loop;
    most := Int.max !most (Udp_node.pending_pulls node)
  done;
  check_bool "pulls were tracked" true (!most > 0);
  check_bool
    (Printf.sprintf "pending pulls bounded (peak %d)" !most)
    true (!most <= 5);
  Udp_node.close node

(* A reply clears its pull's pending entry, so an answered pull is never
   retransmitted.  The virtual clock advances 10 ms at a time and every
   datagram is delivered within the step, well before the first
   retransmission is due. *)
let udp_retry_cleared_by_reply () =
  let vtime = ref 0.0 in
  let loop = Event_loop.create ~clock:(fun () -> !vtime) () in
  let config = Basalt_core.Config.make ~v:8 ~k:2 ~tau:0.1 ~rho:20.0 () in
  let a =
    Udp_node.create ~config ~loop ~listen:(localhost 0) ~bootstrap:[]
      ~seed:11 ()
  in
  let b =
    Udp_node.create ~config ~loop ~listen:(localhost 0)
      ~bootstrap:[ Udp_node.endpoint a ]
      ~seed:12 ()
  in
  for step = 1 to 300 do
    vtime := 0.01 *. float_of_int step;
    Event_loop.run_due_timers loop;
    (* A pull, its reply, and the pull's reply to a push's sender. *)
    for _ = 1 to 3 do
      drain_sockets loop vtime
    done
  done;
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
    Udp_node.create ~config ~inject_loss ~loop ~listen:(localhost 0)
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
    Udp_node.create ~config ~inject_delay:5.0 ~loop ~listen:(localhost 0)
      ~bootstrap:[ dead_endpoint () ]
      ~seed:7 ()
  in
  vtime := 0.25;
  Event_loop.run_due_timers loop
  (* the round fired at 0.024; both sends are in flight, and the first
     retransmission is not due before 0.274 *);
  let stats () = Udp_node.stats node in
  check_int "nothing on the wire yet" 0 (stats ()).Udp_node.datagrams_out;
  for _ = 1 to 10 do
    vtime := !vtime +. 5.0;
    Event_loop.run_due_timers loop
  done
  (* every retransmission and every deferred transmission is due *);
  check_int "three retransmissions" 3 (stats ()).Udp_node.retries;
  check_int "transmitted after the injected delay" 5
    (stats ()).Udp_node.datagrams_out;
  Udp_node.close node

(* A refused [sendto] loses the datagram and is counted as a send
   error, never as a datagram out: a socket without SO_BROADCAST gets
   EACCES for the limited-broadcast address. *)
let udp_send_errors_counted () =
  let vtime = ref 0.0 in
  let loop = Event_loop.create ~clock:(fun () -> !vtime) () in
  let obs = Basalt_obs.Obs.create () in
  let node =
    Udp_node.create
      ~config:(Basalt_core.Config.make ~v:4 ~k:1 ~tau:1.0 ())
      ~obs ~loop ~listen:(localhost 0)
      ~bootstrap:[ Endpoint.make "255.255.255.255" 9 ]
      ~seed:9 ()
  in
  List.iter
    (fun t ->
      vtime := t;
      Event_loop.run_due_timers loop)
    [ 1.1; 2.1; 3.1 ];
  let stats = Udp_node.stats node in
  check_bool "refused sends counted" true (stats.Udp_node.send_errors > 0);
  check_int "nothing counted as sent" 0 stats.Udp_node.datagrams_out;
  check_int "registry agrees" stats.Udp_node.send_errors
    (Basalt_obs.Obs.Counter.value
       (Basalt_obs.Obs.counter obs "net.send_errors"));
  Udp_node.close node

(* A broadcast payload is capped so that its Gossip frame fits one IPv4
   UDP datagram (65,507 bytes): 65,487 bytes pass, one more raises
   rather than being handed to a [sendto] that would refuse it. *)
let udp_publish_fits_one_datagram () =
  let loop = Event_loop.create ~clock:Unix.gettimeofday () in
  let node =
    Udp_node.create
      ~config:(Basalt_core.Config.make ~v:4 ~k:1 ())
      ~gossip:true ~loop ~listen:(localhost 0) ~bootstrap:[] ~seed:3 ()
  in
  Fun.protect ~finally:(fun () -> Udp_node.close node) @@ fun () ->
  check_int "max_payload" 65_487 Udp_node.max_payload;
  let mid = Udp_node.publish node (Bytes.make 65_487 'a') in
  check_int "frame fills the datagram" 65_507
    (Bytes.length
       (Basalt_codec.Wire.encode
          (Message.Gossip { mid; hops = 0; payload = Bytes.make 65_487 'a' })));
  Alcotest.check_raises "one byte more"
    (Invalid_argument
       "Udp_node.publish: payload of 65488 bytes exceeds one datagram (65487)")
    (fun () -> ignore (Udp_node.publish node (Bytes.make 65_488 'a')))

(* Three nodes on one registry, as the daemon benchmark runs them: each
   node's [stats] are its own counts, and they sum to the [net.*]
   totals.  A garbage datagram and a limited-broadcast bootstrap entry
   (refused by [sendto]) give the error counters something to count. *)
let udp_stats_on_shared_registry () =
  let vtime = ref 0.0 in
  let loop = Event_loop.create ~clock:(fun () -> !vtime) () in
  let obs = Basalt_obs.Obs.create ~clock:(fun () -> !vtime) () in
  let config = Basalt_core.Config.make ~v:4 ~k:1 ~tau:1.0 () in
  let mk ~bootstrap seed =
    Udp_node.create ~config ~obs ~loop ~listen:(localhost 0) ~bootstrap ~seed
      ()
  in
  let a =
    mk ~bootstrap:[ dead_endpoint (); Endpoint.make "255.255.255.255" 9 ] 1
  in
  let b = mk ~bootstrap:[ Udp_node.endpoint a ] 2 in
  let c = mk ~bootstrap:[ Udp_node.endpoint a; Udp_node.endpoint b ] 3 in
  let nodes = [ a; b; c ] in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  let garbage = Bytes.of_string "definitely not a basalt datagram" in
  ignore
    (Unix.sendto sock garbage 0 (Bytes.length garbage) []
       (Endpoint.to_sockaddr (Udp_node.endpoint c)));
  Unix.close sock;
  for step = 1 to 40 do
    vtime := 0.25 *. float_of_int step;
    Event_loop.run_due_timers loop;
    drain_sockets loop vtime
  done;
  let total name =
    Basalt_obs.Obs.Counter.value (Basalt_obs.Obs.counter obs ("net." ^ name))
  in
  let sum f =
    List.fold_left (fun acc node -> acc + f (Udp_node.stats node)) 0 nodes
  in
  List.iter
    (fun (name, f) ->
      check_int (name ^ ": summed stats equal the registry total") (total name)
        (sum f))
    [
      ("datagrams_in", fun s -> s.Udp_node.datagrams_in);
      ("datagrams_out", fun s -> s.Udp_node.datagrams_out);
      ("send_errors", fun s -> s.Udp_node.send_errors);
      ("decode_errors", fun s -> s.Udp_node.decode_errors);
      ("retries", fun s -> s.Udp_node.retries);
    ];
  List.iter
    (fun name -> check_bool (name ^ " counted") true (total name > 0))
    [ "datagrams_in"; "datagrams_out"; "decode_errors" ];
  List.iter Udp_node.close nodes

let send_msg sock node msg =
  let b = Basalt_codec.Wire.encode msg in
  ignore
    (Unix.sendto sock b 0 (Bytes.length b) []
       (Endpoint.to_sockaddr (Udp_node.endpoint node)))

(* The wire carries 62-bit identifiers, but an endpoint packs to 48
   bits.  One push from one socket naming its own endpoint with 16
   different high bits would, truncated, fill every slot of a fresh
   view with that one address; the node must count it as a decode
   error instead, and likewise a broadcast whose origin is that wide. *)
let udp_wide_ids_dropped () =
  let vtime = ref 0.0 in
  let loop = Event_loop.create ~clock:(fun () -> !vtime) () in
  let delivered = ref 0 in
  let victim =
    Udp_node.create
      ~config:(Basalt_core.Config.make ~v:16 ~k:4 ~tau:1000.0 ())
      ~gossip:true
      ~deliver:(fun _ _ -> incr delivered)
      ~loop ~listen:(localhost 0) ~bootstrap:[] ~seed:1 ()
  in
  let sock, attacker = peer_socket () in
  let a = Node_id.to_int (Endpoint.to_node_id attacker) in
  send_msg sock victim
    (Message.Push
       (Array.init 16 (fun k -> Node_id.of_int (a lor ((k + 1) lsl 48)))));
  drain_sockets loop vtime;
  let stats = Udp_node.stats victim in
  check_int "the push arrived" 1 stats.Udp_node.datagrams_in;
  check_int "counted as a decode error" 1 stats.Udp_node.decode_errors;
  check_bool "the attacker is not in the view" false
    (List.exists (endpoint_equal attacker) (Udp_node.view victim));
  send_msg sock victim
    (Message.Gossip
       {
         mid =
           { Message.origin = Node_id.of_int (a lor (1 lsl 48)); seqno = 1 };
         hops = 0;
         payload = Bytes.of_string "forged";
       });
  drain_sockets loop vtime;
  check_int "a wide origin is a decode error too" 2
    (Udp_node.stats victim).Udp_node.decode_errors;
  check_int "and is never delivered" 0 !delivered;
  Unix.close sock;
  Udp_node.close victim

(* Eviction takes any traffic from a peer as proof of life, broadcast
   frames included, as the sampler's own rule says; but the gossip
   layer consumes those frames before the sampler sees them, so the
   transport clears the probe itself.  The node's only peer never
   answers a pull but sends it a Prune every round: with eviction after
   2 unanswered rounds, it must still be in the view after 10. *)
let udp_broadcast_frames_count_as_liveness () =
  let vtime = ref 0.0 in
  let loop = Event_loop.create ~clock:(fun () -> !vtime) () in
  let sock, peer = peer_socket () in
  let node =
    Udp_node.create
      ~config:
        (Basalt_core.Config.make ~v:4 ~k:1 ~tau:1.0 ~evict_after_rounds:2 ())
      ~gossip:true ~loop ~listen:(localhost 0) ~bootstrap:[ peer ] ~seed:4 ()
  in
  for round = 1 to 10 do
    vtime := float_of_int round;
    Event_loop.run_due_timers loop;
    send_msg sock node Message.Prune;
    drain_sockets loop vtime
  done;
  check_int "every Prune delivered" 10
    (Udp_node.stats node).Udp_node.datagrams_in;
  check_bool "the peer is still in the view" true
    (List.exists (endpoint_equal peer) (Udp_node.view node));
  Unix.close sock;
  Udp_node.close node

(* The nodes of one loop share its receive buffer.  Two nodes receive
   different broadcast payloads in the same select pass; each payload
   handed to [deliver] must still be intact after the other node has
   read its datagram into that buffer. *)
let udp_shared_buffer_payloads_intact () =
  let vtime = ref 0.0 in
  let loop = Event_loop.create ~clock:(fun () -> !vtime) () in
  let got = ref [] in
  let mk seed =
    Udp_node.create
      ~config:(Basalt_core.Config.make ~v:4 ~k:1 ~tau:1000.0 ())
      ~gossip:true
      ~deliver:(fun _ payload -> got := (seed, payload) :: !got)
      ~loop ~listen:(localhost 0) ~bootstrap:[] ~seed ()
  in
  let a = mk 1 and b = mk 2 in
  let sock, origin = peer_socket () in
  let payload fill = Bytes.make 1500 fill in
  List.iter
    (fun (node, fill) ->
      send_msg sock node
        (Message.Gossip
           {
             mid = { Message.origin = Endpoint.to_node_id origin; seqno = 7 };
             hops = 0;
             payload = payload fill;
           }))
    [ (a, 'a'); (b, 'b') ];
  drain_sockets loop vtime;
  check_int "both delivered in one pass" 2 (List.length !got);
  List.iter
    (fun (seed, p) ->
      check_bool
        (Printf.sprintf "node %d's payload intact" seed)
        true
        (Bytes.equal p (payload (if seed = 1 then 'a' else 'b'))))
    !got;
  Unix.close sock;
  Udp_node.close a;
  Udp_node.close b

(* Spin up [n] real UDP nodes in one process, bootstrap them in a ring of
   overlapping neighbor lists, run the protocol until views converge to a
   rich set of overlay-wide peers, and check them.  The loop runs in
   0.1 s slices until every node has discovered more than 2 peers and
   emitted a sample, up to a 10 s deadline, so a loaded host takes
   longer instead of failing a fixed-length run. *)
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
  let distinct_peers node =
    List.sort_uniq compare (List.map Endpoint.to_string (Udp_node.view node))
  in
  let converged node =
    List.length (distinct_peers node) > 2
    && Basalt_core.Sample_stream.total (Udp_node.samples node) > 0
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    (not (Array.for_all converged nodes)) && Unix.gettimeofday () < deadline
  do
    Event_loop.run_for loop 0.1
  done;
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
      let distinct_peers = distinct_peers node in
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
          Alcotest.test_case "edge endpoints" `Quick endpoint_edges;
          Alcotest.test_case "ids of 2^48 and above rejected" `Quick
            endpoint_rejects_wide_ids;
          Prop.case ~suite:"endpoint" prop_endpoint_conversions;
        ] );
      ( "event_loop",
        [
          Alcotest.test_case "timers fire in order" `Quick loop_timers_fire;
          Alcotest.test_case "every repeats" `Quick loop_every_fires_repeatedly;
          Alcotest.test_case "nan timings rejected" `Quick loop_rejects_nan;
          Alcotest.test_case "fd callback" `Quick loop_fd_callback;
          Alcotest.test_case "virtual clock" `Quick loop_virtual_clock;
          Alcotest.test_case "fd table" `Quick loop_fd_table;
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
          Alcotest.test_case "exhausted pulls leave rtt tracker" `Quick
            udp_exhausted_pulls_leave_rtt_tracker;
          Alcotest.test_case "self-injected loss drops datagrams" `Quick
            udp_inject_loss_drops;
          Alcotest.test_case "self-injected delay postpones datagrams" `Quick
            udp_inject_delay_postpones;
          Alcotest.test_case "refused sends counted as errors" `Quick
            udp_send_errors_counted;
          Alcotest.test_case "stats on a shared registry" `Quick
            udp_stats_on_shared_registry;
          Alcotest.test_case "publish fits one datagram" `Quick
            udp_publish_fits_one_datagram;
          Alcotest.test_case "ids of 2^48 and above dropped" `Quick
            udp_wide_ids_dropped;
          Alcotest.test_case "shared buffer keeps payloads intact" `Quick
            udp_shared_buffer_payloads_intact;
          Alcotest.test_case "broadcast frames count as liveness" `Quick
            udp_broadcast_frames_count_as_liveness;
          Alcotest.test_case "overlay converges end-to-end" `Slow
            udp_overlay_converges;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "serves prometheus text" `Quick
            metrics_server_serves_prometheus;
          Alcotest.test_case "close is idempotent" `Quick
            metrics_server_close_is_idempotent;
        ] );
    ]
