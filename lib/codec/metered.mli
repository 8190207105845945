(** Byte metering for protocol send paths (DESIGN.md §8).

    Every protocol wraps its outgoing {!Basalt_proto.Rps.send} with
    {!send} so the §4.4 communication cost is a measured artifact: each
    message is costed with {!Wire.encoded_size} — the real wire format,
    not the simulation's abstract 4-byte-id model. *)

val send :
  Basalt_obs.Obs.t ->
  proto:string ->
  Basalt_proto.Rps.send ->
  Basalt_proto.Rps.send
(** [send obs ~proto f] is [f] instrumented with counters
    [<proto>.msgs_sent] and [<proto>.bytes_sent], quantile sketch
    [<proto>.msg_bytes] and gauge [<proto>.max_msg_bytes] (wire-encoded
    datagram bytes).  When [obs] is disabled this is [f] itself — zero
    overhead. *)
