(* basalt-node: a stand-alone Basalt peer over UDP.

   Run a small overlay on one machine:

     basalt-node --listen 127.0.0.1:4001 --peer 127.0.0.1:4002 &
     basalt-node --listen 127.0.0.1:4002 --peer 127.0.0.1:4001 &
     basalt-node --listen 127.0.0.1:4003 --peer 127.0.0.1:4001 --duration 30

   Each node prints its view and fresh samples periodically.  Endpoints
   are the node identifiers, so the view is directly a routing table. *)

open Cmdliner
module Endpoint = Basalt_net.Endpoint
module Event_loop = Basalt_net.Event_loop
module Udp_node = Basalt_net.Udp_node

let endpoint_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Endpoint.of_string s) in
  Arg.conv ~docv:"HOST:PORT" (parse, Endpoint.pp)

let listen_arg =
  Arg.(
    required
    & opt (some endpoint_conv) None
    & info [ "l"; "listen" ] ~docv:"HOST:PORT" ~doc:"Address to bind.")

let peers_arg =
  Arg.(
    value & opt_all endpoint_conv []
    & info [ "p"; "peer" ] ~docv:"HOST:PORT"
        ~doc:"Bootstrap peer (repeatable).")

let view_size_arg =
  Arg.(value & opt int 16 & info [ "v"; "view-size" ] ~doc:"View size v.")

let tau_arg =
  Arg.(
    value & opt float 1.0
    & info [ "tau" ] ~doc:"Exchange interval in seconds.")

let rho_arg =
  Arg.(
    value & opt float 1.0
    & info [ "rho" ] ~doc:"Samples per second the service should emit.")

let duration_arg =
  Arg.(
    value & opt float 60.0
    & info [ "d"; "duration" ] ~doc:"How long to run, in seconds.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~doc:"PRNG seed (0 = from time).")

let report_arg =
  Arg.(
    value & opt float 5.0
    & info [ "report-every" ] ~doc:"Status print interval in seconds.")

let loss_arg =
  Arg.(
    value & opt float 0.0
    & info [ "loss" ] ~docv:"P"
        ~doc:
          "Self-inject outgoing datagram loss with probability $(docv) (0 to \
           1): soak a localhost cluster under packet loss without root or \
           $(b,tc).")

let delay_arg =
  Arg.(
    value & opt float 0.0
    & info [ "delay" ] ~docv:"SECONDS"
        ~doc:
          "Self-inject a uniform outgoing delay in [0, $(docv)) seconds on \
           every datagram that survives $(b,--loss).")

let evict_arg =
  Arg.(
    value & opt int 0
    & info [ "evict-after" ] ~docv:"ROUNDS"
        ~doc:
          "Evict peers whose pulls stay unanswered for more than $(docv) \
           rounds (0 disables eviction).  Retransmissions re-record the \
           probe, so eviction and the retry policy stay coupled.")

let publish_every_arg =
  Arg.(
    value & opt float 0.0
    & info [ "publish-every" ] ~docv:"SECONDS"
        ~doc:
          "Publish a broadcast message through the gossip layer every \
           $(docv) seconds (0 = never publish; the node still relays and \
           delivers other nodes' messages).")

let payload_size_arg =
  Arg.(
    value & opt int 32
    & info [ "payload-size" ] ~docv:"BYTES"
        ~doc:
          "Payload size of each published broadcast message, at most 65487 \
           (the Gossip frame must fit one UDP datagram).")

let metrics_arg =
  Arg.(
    value & opt float 0.0
    & info [ "metrics-every" ]
        ~doc:
          "Dump the lib/obs instrument registry every $(docv) seconds (0 = \
           only on SIGUSR1 and at exit).")

let metrics_addr_arg =
  Arg.(
    value
    & opt (some endpoint_conv) None
    & info [ "metrics-addr" ] ~docv:"HOST:PORT"
        ~doc:
          "Serve the instrument registry as Prometheus text over HTTP at \
           $(docv) (port 0 = OS-assigned; the bound address is printed at \
           startup).  Scrape it with $(b,curl) or Prometheus while the node \
           runs.")

let metrics_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-file" ] ~docv:"PATH"
        ~doc:
          "Atomically rewrite $(docv) with the registry's Prometheus text at \
           every $(b,--metrics-every) tick and at exit (written to a \
           temporary file, then renamed) — the no-open-port variant of \
           $(b,--metrics-addr) for file-based collectors.")

let write_metrics_file path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc text;
  close_out oc;
  Sys.rename tmp path

(* A rejected argument prints one line and exits 1, before the socket
   is bound: not cmdliner's "internal error" and exit 125, and not a
   crash at the first publish. *)
let usage_error msg =
  prerr_endline ("basalt-node: " ^ msg);
  exit 1

let main listen peers v tau rho duration seed loss delay evict_after
    publish_every payload_size report_every metrics_every metrics_addr
    metrics_file =
  let seed =
    if seed = 0 then int_of_float (Unix.gettimeofday () *. 1000.0) land 0xFFFFFF
    else seed
  in
  let config =
    try
      Basalt_core.Config.make ~v ~tau ~rho
        ?evict_after_rounds:(if evict_after > 0 then Some evict_after else None)
        ()
    with Invalid_argument msg -> usage_error msg
  in
  if payload_size < 0 || payload_size > Udp_node.max_payload then
    usage_error
      (Printf.sprintf
         "--payload-size must be in [0, %d] (one UDP datagram's Gossip frame)"
         Udp_node.max_payload);
  (* Written so that NaN fails too: it fails every comparison. *)
  if not (report_every > 0.0) then usage_error "--report-every must be > 0";
  if not (metrics_every >= 0.0) then
    usage_error "--metrics-every must be >= 0";
  let loop = Event_loop.create ~clock:Unix.gettimeofday () in
  (* The daemon is the allowlisted real-clock boundary (lint D2/D8): the
     registry's trace clock is the event loop's wall clock. *)
  let obs = Basalt_obs.Obs.create ~clock:(fun () -> Event_loop.now loop) () in
  let deliver mid payload =
    Printf.printf "[recv] broadcast %s#%d (%d bytes)\n%!"
      (Endpoint.to_string (Endpoint.of_node_id mid.Basalt_proto.Message.origin))
      mid.Basalt_proto.Message.seqno (Bytes.length payload)
  in
  let node =
    (* [create] checks the injection knobs before it binds. *)
    try
      Udp_node.create ~config ~obs ~inject_loss:loss ~inject_delay:delay
        ~gossip:true ~deliver ~loop ~listen ~bootstrap:peers ~seed ()
    with Invalid_argument msg -> usage_error msg
  in
  if publish_every > 0.0 then begin
    let published = ref 0 in
    (* Phase-shift the first publish a full interval in, so the mesh has
       had sampler output to graft from. *)
    Event_loop.every loop ~phase:publish_every ~interval:publish_every
      (fun () ->
        let payload =
          Bytes.make payload_size (Char.chr (65 + (!published mod 26)))
        in
        incr published;
        ignore (Udp_node.publish node payload))
  end;
  let dump_metrics () =
    Printf.printf "-- metrics @ %.3f\n%s%!" (Event_loop.now loop)
      (Basalt_obs.Obs.render obs);
    match metrics_file with
    | Some path -> write_metrics_file path (Basalt_obs.Obs.render_prometheus obs)
    | None -> ()
  in
  ignore
    (Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> dump_metrics ())));
  if metrics_every > 0.0 then
    Event_loop.every loop ~interval:metrics_every (fun () -> dump_metrics ());
  let metrics_server =
    Option.map
      (fun addr ->
        let srv =
          Basalt_net.Metrics_server.serve ~loop ~listen:addr
            ~render:(fun () -> Basalt_obs.Obs.render_prometheus obs)
            ()
        in
        Printf.printf "metrics exposition on http://%s/metrics\n%!"
          (Endpoint.to_string (Basalt_net.Metrics_server.endpoint srv));
        srv)
      metrics_addr
  in
  Printf.printf
    "basalt-node listening on %s (v=%d tau=%gs rho=%g seed=%d loss=%g \
     delay=%gs)\n\
     %!"
    (Endpoint.to_string (Udp_node.endpoint node))
    v tau rho seed loss delay;
  Event_loop.every loop ~interval:report_every (fun () ->
      let stats = Udp_node.stats node in
      let view = Udp_node.view node in
      let distinct =
        List.sort_uniq compare (List.map Endpoint.to_string view)
      in
      Printf.printf "[%s] view: %d slots, %d distinct peers; io: %d in / %d out\n"
        (Endpoint.to_string (Udp_node.endpoint node))
        (List.length view) (List.length distinct)
        stats.Udp_node.datagrams_in stats.Udp_node.datagrams_out;
      (match Udp_node.gossip_stats node with
      | Some g when g.Basalt_gossip.Gossip.published > 0 || g.delivered > 0 ->
          Printf.printf
            "  gossip: %d published, %d delivered, %d duplicates, mesh \
             grafts/prunes %d/%d\n"
            g.Basalt_gossip.Gossip.published g.delivered g.duplicates
            g.grafts_sent g.prunes_sent
      | Some _ | None -> ());
      let recent =
        Basalt_core.Sample_stream.recent (Udp_node.samples node) 5
      in
      if recent <> [] then
        Printf.printf "  recent samples: %s\n"
          (String.concat ", "
             (List.map
                (fun id -> Endpoint.to_string (Endpoint.of_node_id id))
                recent));
      flush stdout);
  Event_loop.run_for loop duration;
  let stats = Udp_node.stats node in
  Printf.printf "done: %d datagrams in, %d out, %d decode errors, %d retries\n"
    stats.Udp_node.datagrams_in stats.Udp_node.datagrams_out
    stats.Udp_node.decode_errors stats.Udp_node.retries;
  (match Udp_node.gossip_stats node with
  | Some g ->
      Printf.printf "gossip: %d published, %d delivered, %d duplicates\n"
        g.Basalt_gossip.Gossip.published g.delivered g.duplicates
  | None -> ());
  dump_metrics ();
  Option.iter Basalt_net.Metrics_server.close metrics_server;
  Udp_node.close node

let cmd =
  let info =
    Cmd.info "basalt-node" ~version:"1.0.0"
      ~doc:"Run a Basalt random-peer-sampling node over UDP"
  in
  Cmd.v info
    Term.(
      const main $ listen_arg $ peers_arg $ view_size_arg $ tau_arg $ rho_arg
      $ duration_arg $ seed_arg $ loss_arg $ delay_arg $ evict_arg
      $ publish_every_arg $ payload_size_arg $ report_arg $ metrics_arg
      $ metrics_addr_arg $ metrics_file_arg)

let () = exit (Cmd.eval cmd)
