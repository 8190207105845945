module Basalt = Basalt_core.Basalt
module Config = Basalt_core.Config
module Sample_stream = Basalt_core.Sample_stream
module Wire = Basalt_codec.Wire
module Obs = Basalt_obs.Obs
module Rng = Basalt_prng.Rng
module Message = Basalt_proto.Message
module Node_id = Basalt_proto.Node_id
module Gossip = Basalt_gossip.Gossip

type stats = {
  datagrams_in : int;
  datagrams_out : int;
  decode_errors : int;
  retries : int;
}

type retry = {
  timeout : float;
  backoff : float;
  max_timeout : float;
  max_attempts : int;
  jitter : float;
}

let default_retry =
  { timeout = 0.25; backoff = 2.0; max_timeout = 2.0; max_attempts = 3;
    jitter = 0.1 }

let no_retry =
  { timeout = 1.0; backoff = 1.0; max_timeout = 1.0; max_attempts = 0;
    jitter = 0.0 }

let check_retry r =
  if r.timeout <= 0.0 then invalid_arg "Udp_node: retry timeout must be > 0";
  if r.backoff < 1.0 then invalid_arg "Udp_node: retry backoff must be >= 1";
  if r.max_timeout < r.timeout then
    invalid_arg "Udp_node: retry max_timeout must be >= timeout";
  if r.max_attempts < 0 then
    invalid_arg "Udp_node: retry max_attempts must be >= 0";
  if r.jitter < 0.0 then invalid_arg "Udp_node: retry jitter must be >= 0"

(* One in-flight pull awaiting an answer.  [seq] tokens stand in for
   timer cancellation (the loop has none): every (re)arm takes a fresh
   token and a firing timer acts only if its token is still current. *)
type pending = { mutable attempt : int; mutable seq : int }

type t = {
  loop : Event_loop.t;
  socket : Unix.file_descr;
  endpoint : Endpoint.t;
  node : Basalt.t;
  stream : Sample_stream.t;
  gossip : Gossip.t option;
  buffer : bytes;
  datagrams_in : int ref;
  datagrams_out : int ref;
  decode_errors : int ref;
  retries : int ref;
}

let bind_socket listen =
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind socket (Endpoint.to_sockaddr listen);
  Unix.set_nonblock socket;
  (* Resolve the actually-bound endpoint (meaningful when port 0 was
     requested). *)
  match Unix.getsockname socket with
  | Unix.ADDR_INET (addr, port) -> (socket, { Endpoint.addr; port })
  | Unix.ADDR_UNIX _ -> assert false

let create ?(config = Config.make ~v:16 ~k:4 ()) ?(obs = Obs.disabled)
    ?(retry = default_retry) ?(inject_loss = 0.0) ?(inject_delay = 0.0) ?gossip
    ?(deliver = fun _ _ -> ()) ~loop ~listen ~bootstrap ~seed () =
  check_retry retry;
  if inject_loss < 0.0 || inject_loss > 1.0 then
    invalid_arg "Udp_node: inject_loss must be in [0, 1]";
  if inject_delay < 0.0 then
    invalid_arg "Udp_node: inject_delay must be >= 0";
  let socket, endpoint = bind_socket listen in
  let datagrams_in = ref 0 in
  let datagrams_out = ref 0 in
  let decode_errors = ref 0 in
  let retries = ref 0 in
  let c_in = Obs.counter obs "net.datagrams_in" in
  let c_out = Obs.counter obs "net.datagrams_out" in
  let c_decode_errors = Obs.counter obs "net.decode_errors" in
  let c_retries = Obs.counter obs "net.retries" in
  let c_injected = Obs.counter obs "net.injected_drops" in
  (* All transport-local randomness (backoff jitter, self-injection) comes
     from streams split off the node's seed, so a soak run is replayable
     from its command line. *)
  let root_rng = Rng.create ~seed in
  let retry_rng = Rng.split root_rng in
  let inject_rng = Rng.split root_rng in
  (* Gossip-less nodes draw exactly the streams they always did. *)
  let gossip_rng =
    match gossip with None -> None | Some _ -> Some (Rng.split root_rng)
  in
  (* Raw transmission, optionally degraded by the self-injection knobs:
     drop with probability [inject_loss], else postpone by a uniform draw
     from [0, inject_delay). *)
  let transmit packet target =
    let push () =
      (try ignore (Unix.sendto socket packet 0 (Bytes.length packet) [] target)
       with Unix.Unix_error _ -> ());
      incr datagrams_out;
      Obs.Counter.incr c_out
    in
    if inject_loss > 0.0 && Rng.float inject_rng 1.0 < inject_loss then
      Obs.Counter.incr c_injected
    else if inject_delay > 0.0 then
      Event_loop.schedule loop ~delay:(Rng.float inject_rng inject_delay) push
    else push ()
  in
  let pending : (int, pending) Hashtbl.t = Hashtbl.create 16 in
  let next_seq = ref 0 in
  let node_cell = ref None in
  (* Retransmit an unanswered pull with capped exponential backoff:
     attempt [i] waits [min max_timeout (timeout * backoff^i)], stretched
     by a seeded jitter draw so a cluster started in lockstep does not
     retry in lockstep. *)
  let rec arm_retry ~dst ~key ~packet ~target (p : pending) =
    let seq = !next_seq in
    incr next_seq;
    p.seq <- seq;
    let base = retry.timeout *. (retry.backoff ** float_of_int p.attempt) in
    let delay =
      Float.min retry.max_timeout base
      *. (1.0 +. (retry.jitter *. Rng.float retry_rng 1.0))
    in
    Event_loop.schedule loop ~delay (fun () ->
        match Hashtbl.find_opt pending key with
        | Some q when q == p && q.seq = seq ->
            if p.attempt >= retry.max_attempts then Hashtbl.remove pending key
            else begin
              p.attempt <- p.attempt + 1;
              incr retries;
              Obs.Counter.incr c_retries;
              (* Keep the protocol's dead-peer detection honest: a
                 retransmitted pull is still an unanswered probe. *)
              (match !node_cell with
              | Some node
                when (Basalt.config node).Config.evict_after_rounds <> None ->
                  Basalt.record_probe node dst
              | Some _ | None -> ());
              transmit packet target;
              arm_retry ~dst ~key ~packet ~target p
            end
        | Some _ | None -> ())
  in
  let send ~dst msg =
    let packet = Wire.encode msg in
    let target = Endpoint.to_sockaddr (Endpoint.of_node_id dst) in
    transmit packet target;
    match msg with
    | Message.Pull_request when retry.max_attempts > 0 ->
        let key = Node_id.to_int dst in
        let p =
          match Hashtbl.find_opt pending key with
          | Some p ->
              p.attempt <- 0;
              p
          | None ->
              let p = { attempt = 0; seq = 0 } in
              Hashtbl.replace pending key p;
              p
        in
        arm_retry ~dst ~key ~packet ~target p
    | _ -> ()
  in
  let node =
    Basalt.create ~config ~obs
      ~id:(Endpoint.to_node_id endpoint)
      ~bootstrap:(Array.of_list (List.map Endpoint.to_node_id bootstrap))
      ~rng:root_rng ~send ()
  in
  node_cell := Some node;
  (* The broadcast layer shares the sampler's socket and retry-free send
     path; its mesh replenishes from the same sample stream the
     application reads. *)
  let glayer =
    match (gossip, gossip_rng) with
    | Some gconfig, Some grng ->
        Some
          (Gossip.create ~config:gconfig ~obs
             ~node:(Endpoint.to_node_id endpoint)
             ~view:(fun () -> Basalt.view node)
             ~rng:grng ~send ~deliver ())
    | _ -> None
  in
  let t =
    {
      loop;
      socket;
      endpoint;
      node;
      stream = Sample_stream.create ~capacity:1024;
      gossip = glayer;
      buffer = Bytes.create 65536;
      datagrams_in;
      datagrams_out;
      decode_errors;
      retries;
    }
  in
  let receive () =
    (* Drain everything currently queued on the socket. *)
    let rec drain () =
      match Unix.recvfrom t.socket t.buffer 0 (Bytes.length t.buffer) [] with
      | len, Unix.ADDR_INET (addr, port) -> (
          incr t.datagrams_in;
          Obs.Counter.incr c_in;
          let from = Endpoint.to_node_id { Endpoint.addr; port } in
          (match Wire.decode_sub t.buffer ~off:0 ~len with
          | Ok msg ->
              (* Any decodable traffic from a peer answers its pending
                 pull, mirroring how {!Basalt.on_message} clears the
                 eviction probe. *)
              Hashtbl.remove pending (Node_id.to_int from);
              let handled =
                match t.gossip with
                | Some g -> Gossip.on_message g ~from msg
                | None -> false
              in
              if not handled then Basalt.on_message t.node ~from msg
          | Error _ ->
              incr t.decode_errors;
              Obs.Counter.incr c_decode_errors);
          drain ())
      | _, Unix.ADDR_UNIX _ -> drain ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
          (* A peer's socket is gone; UDP reports it asynchronously. *)
          drain ()
    in
    drain ()
  in
  Event_loop.on_readable loop t.socket receive;
  let tau = config.Config.tau in
  let phase = 0.01 +. (float_of_int (seed land 0xF) /. 500.0) in
  Event_loop.every loop ~phase ~interval:tau (fun () ->
      Basalt.on_round t.node;
      match t.gossip with
      | Some g -> Gossip.heartbeat g
      | None -> ());
  Event_loop.every loop ~interval:(Config.refresh_interval config) (fun () ->
      let fresh = Basalt.sample_tick t.node in
      Sample_stream.push_list t.stream fresh;
      match t.gossip with
      | Some g -> Gossip.on_samples g fresh
      | None -> ());
  t

let endpoint t = t.endpoint
let id t = Basalt.id t.node

let view t =
  Array.to_list (Array.map Endpoint.of_node_id (Basalt.view t.node))

let samples t = t.stream

let publish t payload =
  match t.gossip with
  | Some g -> Gossip.publish g payload
  | None -> invalid_arg "Udp_node.publish: gossip layer not enabled"

let gossip_stats t = Option.map Gossip.stats t.gossip

let stats t =
  {
    datagrams_in = !(t.datagrams_in);
    datagrams_out = !(t.datagrams_out);
    decode_errors = !(t.decode_errors);
    retries = !(t.retries);
  }

let close t =
  Event_loop.remove_fd t.loop t.socket;
  Unix.close t.socket
