(** Binary wire format for RPS and broadcast messages.

    A compact, versioned datagram encoding used by the real UDP transport
    ({!Basalt_net}):

    {v
      offset  size  field
      0       1     magic        (0xB5)
      1       1     version      (1)
      2       1     tag          (0 pull, 1 pull-reply, 2 push, 3 push-id,
                                  4 gossip, 5 ihave, 6 iwant,
                                  7 graft, 8 prune)
      3       1     reserved     (0)
      4       2     count        (big-endian u16; see below)
      6       ...   payload      (per tag)
    v}

    For the sampler frames (tags 0–3) [count] is the number of
    identifiers and the payload is [count] big-endian u64 identifiers.
    For the broadcast frames of [lib/gossip] (DESIGN.md §11):

    - tag 4 ([Gossip]): [count] is the opaque payload length; the frame
      body is origin (u64), seqno (u32), hops (u16), then [count]
      payload bytes;
    - tags 5/6 ([Ihave]/[Iwant]): [count] message identifiers of
      12 bytes each — origin (u64) then seqno (u32);
    - tags 7/8 ([Graft]/[Prune]): [count] must be 0 and the frame is
      header-only.

    Identifiers are 64-bit on the wire (the UDP transport packs an IPv4
    address and port into one identifier; simulators use small ints).
    With the paper's maximum view of 200 identifiers a datagram is
    [6 + 1600 = 1606] bytes — above the classical 1500-byte MTU only
    because of the wider 8-byte identifiers; at the paper's 4-byte
    identifiers ({!Message.bytes_on_wire}) the budget argument holds.
    Decoding is total: malformed input yields [Error], never an
    exception. *)

type error =
  | Truncated  (** Shorter than its header or declared payload. *)
  | Bad_magic of int
  | Bad_version of int
  | Bad_tag of int
  | Trailing_garbage of int  (** Extra bytes after the payload. *)
  | Id_out_of_range  (** An identifier exceeding the native-int range. *)

val encode : Basalt_proto.Message.t -> bytes
(** [encode msg] serialises a message.
    @raise Invalid_argument on a message the format cannot carry: more
    than 65535 identifiers, a broadcast payload longer than
    {!max_payload}, a sequence number outside the u32 range, or a hop
    count outside [\[0, max_hops\]]. *)

val decode : bytes -> (Basalt_proto.Message.t, error) result
(** [decode b] parses a whole datagram. *)

val decode_sub : bytes -> off:int -> len:int -> (Basalt_proto.Message.t, error) result
(** [decode_sub b ~off ~len] parses a slice (e.g. a [recvfrom] buffer).
    Within a valid slice, decoding is total — the parser never reads past
    [off + len], even for hostile headers (fuzzed by [test_codec]'s
    properties and the malformed-input corpus).
    @raise Invalid_argument if the slice is not within [b] (checked
    overflow-proof, so hostile [off]/[len] near [max_int] cannot smuggle
    an out-of-bounds read past the guard). *)

val max_payload : int
(** Maximum broadcast payload length in bytes (65535): the format's
    limit.  A frame that long exceeds one IPv4 UDP datagram, so the UDP
    transport accepts at most [Basalt_net.Udp_node.max_payload]. *)

val max_hops : int
(** Maximum hop count a [Gossip] frame can carry (65535). *)

val encoded_size : Basalt_proto.Message.t -> int
(** [encoded_size msg] is [Bytes.length (encode msg)] without encoding. *)
