module Event_queue = Basalt_engine.Event_queue

type t = {
  clock : unit -> float;
  timers : (unit -> unit) Event_queue.t;
  mutable fds : (Unix.file_descr * (unit -> unit)) list;
  mutable stopped : bool;
}

let create ~clock () =
  { clock; timers = Event_queue.create ~filler:ignore; fds = []; stopped = false }

let now t = t.clock ()

let on_readable t fd f = t.fds <- (fd, f) :: List.remove_assoc fd t.fds

let remove_fd t fd = t.fds <- List.remove_assoc fd t.fds

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Event_loop.schedule: negative delay";
  Event_queue.push t.timers ~time:(now t +. delay) f

let every t ?phase ~interval f =
  if interval <= 0.0 then invalid_arg "Event_loop.every: interval must be > 0";
  let phase = Option.value phase ~default:interval in
  let rec fire () =
    f ();
    Event_queue.push t.timers ~time:(now t +. interval) fire
  in
  Event_queue.push t.timers ~time:(now t +. phase) fire

let stop t = t.stopped <- true

let run_due_timers t =
  while
    (not (Event_queue.is_empty t.timers))
    && Event_queue.top_time t.timers <= now t
  do
    (Event_queue.take t.timers) ()
  done

let run_for t duration =
  t.stopped <- false;
  let horizon = now t +. duration in
  while (not t.stopped) && now t < horizon do
    run_due_timers t;
    let next_deadline =
      if Event_queue.is_empty t.timers then horizon
      else Float.min (Event_queue.top_time t.timers) horizon
    in
    let timeout = Float.max 0.0 (Float.min 0.05 (next_deadline -. now t)) in
    match Unix.select (List.map fst t.fds) [] [] timeout with
    | readable, _, _ ->
        List.iter
          (fun fd ->
            match List.assoc_opt fd t.fds with
            | Some callback -> callback ()
            | None -> ())
          readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done
