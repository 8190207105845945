(** Live metrics exposition: a minimal HTTP endpoint on the shared
    {!Event_loop} serving Prometheus text (DESIGN.md §8).

    Each accepted connection is answered with a single [200] response
    carrying the render callback's output at scrape time — typically
    {!Basalt_obs.Obs.render_prometheus} over the daemon's registry —
    then closed (HTTP/1.0 one-shot, which every scraper and [curl]
    speak).  The server never blocks the loop: the listener and every
    connection are non-blocking, and requests are read incrementally
    through the loop's readable callbacks. *)

type t

val serve :
  loop:Event_loop.t ->
  listen:Endpoint.t ->
  render:(unit -> string) ->
  unit ->
  t
(** [serve ~loop ~listen ~render ()] binds a TCP listener on [listen]
    (port 0 = OS-assigned) and serves [render ()] to every request.
    @raise Unix.Unix_error if the socket cannot be bound. *)

val endpoint : t -> Endpoint.t
(** [endpoint t] is the actually-bound listen endpoint. *)

val close : t -> unit
(** [close t] closes the listener and any in-flight connections.
    Idempotent. *)
