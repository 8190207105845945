module Basalt = Basalt_core.Basalt
module Config = Basalt_core.Config
module Sample_stream = Basalt_core.Sample_stream
module Wire = Basalt_codec.Wire
module Obs = Basalt_obs.Obs
module Rng = Basalt_prng.Rng
module Message = Basalt_proto.Message
module Node_id = Basalt_proto.Node_id
module Gossip = Basalt_gossip.Gossip
module Node = Basalt_assembly.Node

type stats = {
  datagrams_in : int;
  datagrams_out : int;
  send_errors : int;
  decode_errors : int;
  retries : int;
}

(* The pull retransmission policy (DESIGN.md §10): attempt [i] (0-based)
   waits [retry_timeout * 2^i] seconds — 0.25, 0.5, 1 and 2 s —
   stretched by up to [retry_jitter], and a pull is given up after
   [retry_attempts] retransmissions. *)
let retry_timeout = 0.25
let retry_attempts = 3
let retry_jitter = 0.1

(* One in-flight pull awaiting an answer.  [seq] tokens stand in for
   timer cancellation (the loop has none): every (re)arm takes a fresh
   token and a firing timer acts only if its token is still current. *)
type pending = { mutable attempt : int; mutable seq : int }

type t = {
  loop : Event_loop.t;
  socket : Unix.file_descr;
  endpoint : Endpoint.t;
  node : Node.t;
  basalt : Basalt.t;
  gossip : Gossip.t option;
  c_in : Obs.Counter.t;
  c_out : Obs.Counter.t;
  c_send_errors : Obs.Counter.t;
  c_decode_errors : Obs.Counter.t;
  c_retries : Obs.Counter.t;
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

(* Every identifier a datagram carries, message-id origins included,
   must be one an endpoint packs to: the wire allows 62 bits, and a
   larger id would unpack to the same address as [2^14] others. *)
let mid_ok (m : Message.mid) = Endpoint.valid_id m.Message.origin

let ids_valid = function
  | Message.Pull_request | Message.Graft | Message.Prune -> true
  | Message.Pull_reply ids | Message.Push ids ->
      Array.for_all Endpoint.valid_id ids
  | Message.Push_id id -> Endpoint.valid_id id
  | Message.Gossip { mid; _ } -> mid_ok mid
  | Message.Ihave mids | Message.Iwant mids -> Array.for_all mid_ok mids

let create ~config ?(obs = Obs.disabled) ?(inject_loss = 0.0)
    ?(inject_delay = 0.0) ?(gossip = false) ?(deliver = fun _ _ -> ()) ~loop
    ~listen ~bootstrap ~seed () =
  (* Stated as what a valid value passes, so NaN is refused too. *)
  if not (inject_loss >= 0.0 && inject_loss <= 1.0) then
    invalid_arg "Udp_node: inject_loss must be in [0, 1]";
  if not (inject_delay >= 0.0) then
    invalid_arg "Udp_node: inject_delay must be >= 0";
  let socket, endpoint = bind_socket listen in
  let c_in = Obs.counter obs "net.datagrams_in" in
  let c_out = Obs.counter obs "net.datagrams_out" in
  let c_send_errors = Obs.counter obs "net.send_errors" in
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
  let gossip_rng = if gossip then Some (Rng.split root_rng) else None in
  (* Raw transmission, optionally degraded by the self-injection knobs:
     drop with probability [inject_loss], else postpone by a uniform draw
     from [0, inject_delay).  A datagram counts as sent only if [sendto]
     accepts it; a refusal (EAGAIN, ENOBUFS, EACCES, ...) loses it like
     the network would, and is counted. *)
  let transmit packet target =
    let push () =
      match Unix.sendto socket packet 0 (Bytes.length packet) [] target with
      | _ -> Obs.Counter.incr c_out
      | exception Unix.Unix_error _ -> Obs.Counter.incr c_send_errors
    in
    if inject_loss > 0.0 && Rng.float inject_rng 1.0 < inject_loss then
      Obs.Counter.incr c_injected
    else if inject_delay > 0.0 then
      Event_loop.schedule loop ~delay:(Rng.float inject_rng inject_delay) push
    else push ()
  in
  let pending : (int, pending) Hashtbl.t = Hashtbl.create 16 in
  let next_seq = ref 0 in
  let basalt_cell = ref None in
  (* Retransmit an unanswered pull with exponential backoff: attempt [i]
     waits [retry_timeout * 2^i], stretched by a seeded jitter draw so a
     cluster started in lockstep does not retry in lockstep. *)
  let rec arm_retry ~dst ~key ~packet ~target (p : pending) =
    let seq = !next_seq in
    incr next_seq;
    p.seq <- seq;
    let delay =
      retry_timeout
      *. (2.0 ** float_of_int p.attempt)
      *. (1.0 +. (retry_jitter *. Rng.float retry_rng 1.0))
    in
    Event_loop.schedule loop ~delay (fun () ->
        match Hashtbl.find_opt pending key with
        | Some q when q == p && q.seq = seq ->
            if p.attempt >= retry_attempts then begin
              Hashtbl.remove pending key;
              (* Out of retries: the pull is given up, so it leaves the
                 RTT tracker too, or a churning network would grow it
                 by one entry per dead peer. *)
              Option.iter (fun b -> Basalt.abandon_pull b dst) !basalt_cell
            end
            else begin
              p.attempt <- p.attempt + 1;
              Obs.Counter.incr c_retries;
              (* Keep the protocol's dead-peer detection honest: a
                 retransmitted pull is still an unanswered probe. *)
              (match !basalt_cell with
              | Some b
                when (Basalt.config b).Config.evict_after_rounds <> None ->
                  Basalt.record_probe b dst
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
    | Message.Pull_request ->
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
  let basalt =
    Basalt.create ~config ~obs
      ~id:(Endpoint.to_node_id endpoint)
      ~bootstrap:(Array.of_list (List.map Endpoint.to_node_id bootstrap))
      ~rng:root_rng ~send ()
  in
  basalt_cell := Some basalt;
  (* The broadcast layer shares the sampler's socket and retry-free send
     path; its mesh replenishes from the same sample stream the
     application reads. *)
  let glayer =
    Option.map
      (fun rng ->
        Gossip.create ~obs ~node:(Basalt.id basalt)
          ~view:(fun () -> Basalt.view basalt)
          ~rng ~send ~deliver ())
      gossip_rng
  in
  let t =
    {
      loop;
      socket;
      endpoint;
      node =
        Node.create
          ?app:(Option.map Node.gossip glayer)
          ~stream:(Sample_stream.create ~capacity:1024)
          (Basalt.to_rps basalt);
      basalt;
      gossip = glayer;
      c_in;
      c_out;
      c_send_errors;
      c_decode_errors;
      c_retries;
    }
  in
  (* The loop's one receive buffer: [decode_sub] copies everything the
     message holds out of it before [Node.deliver] runs. *)
  let buffer = Event_loop.buffer loop in
  let receive () =
    (* Drain everything currently queued on the socket. *)
    let rec drain () =
      match Unix.recvfrom t.socket buffer 0 (Bytes.length buffer) [] with
      | len, Unix.ADDR_INET (addr, port) -> (
          Obs.Counter.incr c_in;
          (match Wire.decode_sub buffer ~off:0 ~len with
          | Ok msg when ids_valid msg ->
              let from = Endpoint.to_node_id { Endpoint.addr; port } in
              (* Any decodable traffic from a peer answers its pending
                 pull and clears its eviction probe, a broadcast frame
                 the gossip layer consumes before the sampler sees it
                 included. *)
              Hashtbl.remove pending (Node_id.to_int from);
              Basalt.clear_probe t.basalt from;
              Node.deliver t.node ~from msg
          | Ok _ | Error _ -> Obs.Counter.incr c_decode_errors);
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
  Event_loop.every loop ~phase ~interval:tau (fun () -> Node.round t.node);
  Event_loop.every loop ~interval:(Config.refresh_interval config) (fun () ->
      ignore (Node.tick t.node));
  t

let endpoint t = t.endpoint
let view t = Array.to_list (Array.map Endpoint.of_node_id (Node.view t.node))

let samples t = Node.stream t.node

(* One IPv4 UDP datagram carries at most 65,507 bytes (65,535 less the
   20-byte IP and 8-byte UDP headers); a Gossip frame spends what an
   empty payload encodes to on its header. *)
let max_payload =
  let empty =
    Message.Gossip
      {
        mid = { Message.origin = Node_id.of_int 0; seqno = 0 };
        hops = 0;
        payload = Bytes.empty;
      }
  in
  65_507 - Bytes.length (Wire.encode empty)

let publish t payload =
  match t.gossip with
  | None -> invalid_arg "Udp_node.publish: gossip layer not enabled"
  | Some _ when Bytes.length payload > max_payload ->
      invalid_arg
        (Printf.sprintf
           "Udp_node.publish: payload of %d bytes exceeds one datagram (%d)"
           (Bytes.length payload) max_payload)
  | Some g -> Gossip.publish g payload

let pending_pulls t = Basalt.pending_pulls t.basalt

let gossip_stats t = Option.map Gossip.stats t.gossip

let stats t =
  let own = Obs.Counter.own in
  {
    datagrams_in = own t.c_in;
    datagrams_out = own t.c_out;
    send_errors = own t.c_send_errors;
    decode_errors = own t.c_decode_errors;
    retries = own t.c_retries;
  }

let close t =
  Event_loop.remove_fd t.loop t.socket;
  Unix.close t.socket
