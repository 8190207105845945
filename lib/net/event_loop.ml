module Event_queue = Basalt_engine.Event_queue

type t = {
  clock : unit -> float;
  timers : (unit -> unit) Event_queue.t;
  mutable fds : (Unix.file_descr * (unit -> unit)) list;
      (* newest registration first *)
  mutable watched : Unix.file_descr list;
      (* [List.map fst fds], rebuilt only when [fds] changes *)
  buffer : bytes;
}

let buffer_size = 65_536

let create ~clock () =
  {
    clock;
    timers = Event_queue.create ~filler:ignore;
    fds = [];
    watched = [];
    buffer = Bytes.create buffer_size;
  }

let now t = t.clock ()
let buffer t = t.buffer

(* A [Unix.file_descr] is an immediate int on Unix, so physical equality
   is descriptor equality at the cost of one machine compare. *)
let same_fd (a : Unix.file_descr) b = a == b

let rec without fd = function
  | [] -> []
  | ((fd', _) as entry) :: rest ->
      if same_fd fd fd' then rest else entry :: without fd rest

let rec callback fd = function
  | [] -> ignore
  | (fd', f) :: rest -> if same_fd fd fd' then f else callback fd rest

let set_fds t fds =
  t.fds <- fds;
  t.watched <- List.map fst fds

let on_readable t fd f = set_fds t ((fd, f) :: without fd t.fds)

let remove_fd t fd = set_fds t (without fd t.fds)

let schedule t ~delay f =
  (* [not (x >= 0.0)] and [not (x > 0.0)] refuse NaN as well. *)
  if not (delay >= 0.0) then
    invalid_arg "Event_loop.schedule: negative delay";
  Event_queue.push t.timers ~time:(now t +. delay) f

let every t ?phase ~interval f =
  if not (interval > 0.0) then
    invalid_arg "Event_loop.every: interval must be > 0";
  let phase = Option.value phase ~default:interval in
  let rec fire () =
    f ();
    Event_queue.push t.timers ~time:(now t +. interval) fire
  in
  Event_queue.push t.timers ~time:(now t +. phase) fire

let run_due_timers t =
  while
    (not (Event_queue.is_empty t.timers))
    && Event_queue.top_time t.timers <= now t
  do
    (Event_queue.take t.timers) ()
  done

(* Each callback is looked up when its turn comes, so one that removes
   or replaces another fd's registration is seen by the rest of the
   pass. *)
let rec dispatch t = function
  | [] -> ()
  | fd :: rest ->
      (callback fd t.fds) ();
      dispatch t rest

let run_for t duration =
  let horizon = now t +. duration in
  while now t < horizon do
    run_due_timers t;
    let next_deadline =
      if Event_queue.is_empty t.timers then horizon
      else Float.min (Event_queue.top_time t.timers) horizon
    in
    let timeout = Float.max 0.0 (Float.min 0.05 (next_deadline -. now t)) in
    match Unix.select t.watched [] [] timeout with
    | readable, _, _ -> dispatch t readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done
