type t = { addr : Unix.inet_addr; port : int }

let check_port port =
  if port < 0 || port > 0xFFFF then
    invalid_arg "Endpoint: port out of [0, 65535]"

let make host port =
  check_port port;
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found | Invalid_argument _ ->
        invalid_arg ("Endpoint.make: cannot resolve " ^ host))
  in
  { addr; port }

let of_string s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "missing ':' in endpoint %S" s)
  | Some i -> (
      let host = String.sub s 0 i in
      let port_str = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port_str with
      | None -> Error (Printf.sprintf "bad port in endpoint %S" s)
      | Some port -> (
          try Ok (make host port)
          with Invalid_argument msg -> Error msg))

let to_string e =
  Printf.sprintf "%s:%d" (Unix.string_of_inet_addr e.addr) e.port

let pp ppf e = Format.fprintf ppf "%s" (to_string e)

(* Pack a.b.c.d:port as (a<<40)|(b<<32)|(c<<24)|(d<<16)|port — 48 bits,
   comfortably inside a non-negative native integer. *)
let valid_id id = Basalt_proto.Node_id.to_int id lsr 48 = 0

let not_ipv4 () = invalid_arg "Endpoint.to_node_id: not an IPv4 address"

(* One pass over the dotted quad [s] from [i]: [acc] holds the octets
   already read, [octet] the one being read and [digits] its length.
   Top-level, so a conversion allocates nothing beyond the string that
   [Unix.string_of_inet_addr] returns. *)
let rec parse_quad s i acc octet digits dots =
  if i = String.length s then
    if dots = 3 && digits > 0 && octet <= 255 then (acc lsl 8) lor octet
    else not_ipv4 ()
  else
    match s.[i] with
    | '0' .. '9' as c when digits < 3 ->
        parse_quad s (i + 1) acc
          ((octet * 10) + Char.code c - Char.code '0')
          (digits + 1) dots
    | '.' when digits > 0 && dots < 3 && octet <= 255 ->
        parse_quad s (i + 1) ((acc lsl 8) lor octet) 0 0 (dots + 1)
    | _ -> not_ipv4 ()

let to_node_id e =
  let quad = parse_quad (Unix.string_of_inet_addr e.addr) 0 0 0 0 0 in
  Basalt_proto.Node_id.of_int ((quad lsl 16) lor e.port)

let octet_digits o = if o >= 100 then 3 else if o >= 10 then 2 else 1

(* Writes the last [i + 1] decimal digits of [o] ending at [pos + i]. *)
let rec put_digits buf pos i o =
  if i >= 0 then begin
    Bytes.set buf (pos + i) (Char.chr (Char.code '0' + (o mod 10)));
    put_digits buf pos (i - 1) (o / 10)
  end

(* Writes octet [o] in decimal at [pos]; returns the position after it. *)
let put_octet buf pos o =
  let n = octet_digits o in
  put_digits buf pos (n - 1) o;
  pos + n

let of_node_id id =
  if not (valid_id id) then
    invalid_arg "Endpoint.of_node_id: identifier above 48 bits";
  let x = Basalt_proto.Node_id.to_int id in
  let a = (x lsr 40) land 0xFF
  and b = (x lsr 32) land 0xFF
  and c = (x lsr 24) land 0xFF
  and d = (x lsr 16) land 0xFF in
  (* "a.b.c.d" written straight into a buffer of its exact length. *)
  let buf =
    Bytes.create
      (octet_digits a + octet_digits b + octet_digits c + octet_digits d + 3)
  in
  let pos = put_octet buf 0 a in
  Bytes.set buf pos '.';
  let pos = put_octet buf (pos + 1) b in
  Bytes.set buf pos '.';
  let pos = put_octet buf (pos + 1) c in
  Bytes.set buf pos '.';
  ignore (put_octet buf (pos + 1) d);
  {
    addr = Unix.inet_addr_of_string (Bytes.unsafe_to_string buf);
    port = x land 0xFFFF;
  }

let to_sockaddr e = Unix.ADDR_INET (e.addr, e.port)

let of_sockaddr = function
  | Unix.ADDR_INET (addr, port) -> Ok { addr; port }
  | Unix.ADDR_UNIX _ -> Error "unix-domain address"

