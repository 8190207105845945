(** Network endpoints as node identifiers.

    The paper's system model (§2.1) assumes that knowing a node's
    identifier suffices to send it a message — "essentially what the
    Internet and the TCP/IP protocol stack provides".  The UDP transport
    realises that literally: a node's identifier {e is} its IPv4 address
    and port, packed losslessly into one non-negative native integer
    (32 address bits above 16 port bits), so the same
    {!Basalt_core.Basalt} instance drives both the simulator and the real
    network. *)

type t = { addr : Unix.inet_addr; port : int }
(** An IPv4 endpoint. *)

val make : string -> int -> t
(** [make host port] resolves a dotted-quad (or name) and checks the
    port range. @raise Invalid_argument on a bad address or port. *)

val of_string : string -> (t, string) result
(** [of_string "a.b.c.d:port"] parses an endpoint. *)

val to_string : t -> string
(** [to_string e] is ["a.b.c.d:port"] (inverse of {!of_string}). *)

val pp : Format.formatter -> t -> unit
(** Formatter for endpoints. *)

val to_node_id : t -> Basalt_proto.Node_id.t
(** [to_node_id e] packs the endpoint into an identifier below
    2{^48}: [(a lsl 40) lor (b lsl 32) lor (c lsl 24) lor (d lsl 16) lor
    port] for [a.b.c.d:port].  One pass over
    [Unix.string_of_inet_addr], with no intermediate strings.
    @raise Invalid_argument on a non-IPv4 address. *)

val valid_id : Basalt_proto.Node_id.t -> bool
(** [valid_id id] holds when [id] is below 2{^48}: the identifiers
    {!to_node_id} produces and {!of_node_id} accepts.  The wire format
    carries 62-bit identifiers, so a datagram can name ids no endpoint
    packs to. *)

val of_node_id : Basalt_proto.Node_id.t -> t
(** [of_node_id id] unpacks an identifier produced by {!to_node_id}:
    the dotted quad is written into one exact-length buffer for
    [Unix.inet_addr_of_string].
    @raise Invalid_argument if [id] is 2{^48} or more ({!valid_id}
    fails): truncating it would alias 2{^14} identifiers to one
    endpoint. *)

val to_sockaddr : t -> Unix.sockaddr
(** [to_sockaddr e] is the corresponding [Unix.ADDR_INET] address. *)

val of_sockaddr : Unix.sockaddr -> (t, string) result
(** [of_sockaddr sa] converts an [ADDR_INET] socket address back; [Error _]
    on any other address family. *)
