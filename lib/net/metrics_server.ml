(* A minimal Prometheus-exposition HTTP endpoint on the shared event
   loop.  Each accepted connection is read until the end of the request
   headers (or EOF), answered with one 200 response carrying the
   render callback's current output, and closed — the stateless
   one-shot shape every scraper and `curl` speak. *)

type conn = { fd : Unix.file_descr; buf : Buffer.t }

type t = {
  loop : Event_loop.t;
  listen_fd : Unix.file_descr;
  endpoint : Endpoint.t;
  render : unit -> string;
  mutable conns : conn list;
  mutable closed : bool;
}

let max_request_bytes = 16_384

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  (try
     while !off < n do
       off := !off + Unix.write fd b !off (n - !off)
     done
   with Unix.Unix_error _ -> ())

let drop_conn t conn =
  t.conns <- List.filter (fun c -> c.fd != conn.fd) t.conns;
  Event_loop.remove_fd t.loop conn.fd;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let respond t conn =
  let body = t.render () in
  let response =
    Printf.sprintf
      "HTTP/1.0 200 OK\r\n\
       Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
       Content-Length: %d\r\n\
       Connection: close\r\n\
       \r\n\
       %s"
      (String.length body) body
  in
  write_all conn.fd response;
  drop_conn t conn

let headers_complete buf =
  let s = Buffer.contents buf in
  let rec scan i =
    if i + 3 >= String.length s then false
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
            && s.[i + 3] = '\n'
    then true
    else scan (i + 1)
  in
  scan 0

let on_conn_readable t conn () =
  let chunk = Bytes.create 4096 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> respond t conn (* client shut down its write side *)
  | n ->
      Buffer.add_subbytes conn.buf chunk 0 n;
      if headers_complete conn.buf then respond t conn
      else if Buffer.length conn.buf > max_request_bytes then drop_conn t conn
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop_conn t conn

let on_accept t () =
  match Unix.accept t.listen_fd with
  | fd, _addr ->
      Unix.set_nonblock fd;
      let conn = { fd; buf = Buffer.create 256 } in
      t.conns <- conn :: t.conns;
      Event_loop.on_readable t.loop fd (on_conn_readable t conn)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

let serve ~loop ~listen ~render () =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd SO_REUSEADDR true;
     Unix.bind fd (Endpoint.to_sockaddr listen);
     Unix.listen fd 16;
     Unix.set_nonblock fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let endpoint =
    match Endpoint.of_sockaddr (Unix.getsockname fd) with
    | Ok e -> e
    | Error _ -> listen
  in
  let t =
    {
      loop;
      listen_fd = fd;
      endpoint;
      render;
      conns = [];
      closed = false;
    }
  in
  Event_loop.on_readable loop fd (on_accept t);
  t

let endpoint t = t.endpoint

let close t =
  if not t.closed then begin
    t.closed <- true;
    List.iter (fun c -> drop_conn t c) t.conns;
    Event_loop.remove_fd t.loop t.listen_fd;
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end
