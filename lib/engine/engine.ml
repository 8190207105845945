module Obs = Basalt_obs.Obs
module Rng = Basalt_prng.Rng

(* A queued delivery carries its send time and an open "engine.flight"
   span, so delivery can observe the flight latency and close the span
   without a side table.  Dropped messages abandon their span (spans
   emit only on [span_end]), so only completed flights appear in the
   trace. *)
type 'msg event =
  | Deliver of { src : int; dst : int; msg : 'msg; sent : float; span : Obs.span }
  | Timer of (unit -> unit)

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  ignored : int;
  events : int;
  dup : int;
  reordered : int;
  partition_drops : int;
}

(* Per-directed-link fault state: a dedicated RNG stream plus the loss
   model's channel state (Gilbert–Elliott burst phase).  The stream is
   derived from the engine seed and the (src, dst) pair alone, so the
   fault schedule of a link is a pure function of the scenario — not of
   table-creation order or of traffic on other links.  Without a plan
   only the burst phase is used. *)
type link_state = { link_rng : Rng.t; loss_state : Link.Loss.state }

type 'msg t = {
  queue : 'msg event Event_queue.t;
  handlers : (from:int -> 'msg -> unit) option array;
  latency : Link.Latency.t;
  loss : Link.Loss.t;
  fault : Fault.t option;  (* None = legacy single-stream path *)
  fault_salt : int64;
  link_states : (int, link_state) Hashtbl.t;
  rng : Basalt_prng.Rng.t;
  obs : Obs.t;
  kind_of : 'msg -> string;
  c_sent : Obs.Counter.t;
  c_delivered : Obs.Counter.t;
  c_dropped : Obs.Counter.t;
  c_ignored : Obs.Counter.t;
  c_timer_fires : Obs.Counter.t;
  c_dup : Obs.Counter.t;
  c_reordered : Obs.Counter.t;
  c_partition_drops : Obs.Counter.t;
  s_flight : Obs.Sketch.t;
  mutable clock : float;
}

(* A strictly positive delivery delay even for the Zero latency model, so
   that a message sent while executing round [t]'s timer is handled after
   that timer completes but before round [t + tau]. *)
let min_delay = 1e-6

let create ?(latency = Link.Latency.Zero) ?(loss = Link.Loss.None) ?fault
    ?(obs = Obs.disabled) ?(kind_of = fun _ -> "msg") ~rng ~n () =
  if n < 0 then invalid_arg "Engine.create: negative n";
  let rng = Basalt_prng.Rng.split rng in
  let fault =
    match fault with Some f when not (Fault.is_none f) -> Some f | _ -> None
  in
  (* The salt is drawn only when a plan is active, so fault-free engines
     consume exactly the PRNG stream they always did. *)
  let fault_salt =
    match fault with Some _ -> Basalt_prng.Rng.int64 rng | None -> 0L
  in
  {
    queue = Event_queue.create ~filler:(Timer ignore);
    handlers = Array.make n None;
    latency;
    loss;
    fault;
    fault_salt;
    link_states = Hashtbl.create 64;
    rng;
    obs;
    kind_of;
    c_sent = Obs.counter obs "engine.sent";
    c_delivered = Obs.counter obs "engine.delivered";
    c_dropped = Obs.counter obs "engine.dropped";
    c_ignored = Obs.counter obs "engine.ignored";
    c_timer_fires = Obs.counter obs "engine.timer_fires";
    c_dup = Obs.counter obs "engine.dup";
    c_reordered = Obs.counter obs "engine.reordered";
    c_partition_drops = Obs.counter obs "engine.partition_drops";
    s_flight = Obs.sketch obs "engine.flight_latency";
    clock = 0.0;
  }

let now t = t.clock

let register t node handler =
  if node < 0 || node >= Array.length t.handlers then
    invalid_arg "Engine.register: node out of range";
  t.handlers.(node) <- Some handler

let trace_msg ?(extra = []) t ev ~src ~dst msg =
  Obs.trace t.obs ~name:ev
    (( "src", Obs.Int src)
     :: ("dst", Obs.Int dst)
     :: ("kind", Obs.Str (t.kind_of msg))
     :: extra)

(* One flight span per queued copy (a duplicated datagram gets its own),
   opened at send so its causal id orders spans by submission. *)
let flight_span t ~src ~dst msg =
  if Obs.tracing t.obs then
    Obs.span t.obs ~name:"engine.flight"
      [
        ("src", Obs.Int src);
        ("dst", Obs.Int dst);
        ("kind", Obs.Str (t.kind_of msg));
      ]
  else Obs.no_span

let drop t ~src ~dst msg =
  Obs.Counter.incr t.c_dropped;
  if Obs.tracing t.obs then trace_msg t "engine.drop" ~src ~dst msg

let link_state t ~src ~dst =
  let key = (src * Array.length t.handlers) + dst in
  match Hashtbl.find_opt t.link_states key with
  | Some st -> st
  | None ->
      let seed =
        Int64.to_int
          (Basalt_prng.Splitmix64.mix
             (Int64.logxor t.fault_salt (Int64.of_int key)))
      in
      let st =
        {
          link_rng = Rng.create ~seed;
          loss_state = Link.Loss.initial Link.Loss.None;
        }
      in
      Hashtbl.replace t.link_states key st;
      st

let send_faulty t f ~src ~dst msg =
  let time = t.clock in
  if
    Fault.down f ~time ~node:src
    || Fault.down f ~time ~node:dst
    || Fault.partitioned f ~time ~src ~dst
  then begin
    Obs.Counter.incr t.c_dropped;
    Obs.Counter.incr t.c_partition_drops;
    if Obs.tracing t.obs then
      trace_msg t "engine.drop" ~src ~dst msg
        ~extra:[ ("cause", Obs.Str "partition") ]
  end
  else begin
    let st = link_state t ~src ~dst in
    let spec = f.Fault.base in
    let loss =
      match spec with Some { loss = Some l; _ } -> l | _ -> t.loss
    in
    if Link.Loss.drops loss st.loss_state st.link_rng then
      drop t ~src ~dst msg
    else begin
      let dup, reorder, reorder_window =
        match spec with
        | Some s -> (s.Fault.dup, s.Fault.reorder, s.Fault.reorder_window)
        | None -> (0.0, 0.0, 0.0)
      in
      let delay () =
        let d = min_delay +. Link.Latency.sample t.latency st.link_rng in
        if reorder > 0.0 && Rng.bernoulli st.link_rng ~p:reorder then begin
          Obs.Counter.incr t.c_reordered;
          d +. Rng.float st.link_rng reorder_window
        end
        else d
      in
      Event_queue.push t.queue ~time:(time +. delay ())
        (Deliver { src; dst; msg; sent = time; span = flight_span t ~src ~dst msg });
      if dup > 0.0 && Rng.bernoulli st.link_rng ~p:dup then begin
        Obs.Counter.incr t.c_dup;
        if Obs.tracing t.obs then trace_msg t "engine.dup" ~src ~dst msg;
        Event_queue.push t.queue ~time:(time +. delay ())
          (Deliver
             { src; dst; msg; sent = time; span = flight_span t ~src ~dst msg })
      end
    end
  end

(* The fault-free path draws from the engine's one stream, so [None] and
   [Bernoulli] loss consume it as they always did; a Gilbert–Elliott
   burst phase still lives per directed link (DESIGN.md §10). *)
let lost t ~src ~dst =
  match t.loss with
  | Link.Loss.None -> false
  | Link.Loss.Bernoulli p -> Rng.bernoulli t.rng ~p
  | Link.Loss.Gilbert_elliott _ ->
      Link.Loss.drops t.loss (link_state t ~src ~dst).loss_state t.rng

let send t ~src ~dst msg =
  Obs.Counter.incr t.c_sent;
  if Obs.tracing t.obs then trace_msg t "engine.send" ~src ~dst msg;
  match t.fault with
  | Some f -> send_faulty t f ~src ~dst msg
  | None ->
      if lost t ~src ~dst then drop t ~src ~dst msg
      else
        let delay = min_delay +. Link.Latency.sample t.latency t.rng in
        Event_queue.push t.queue ~time:(t.clock +. delay)
          (Deliver
             {
               src;
               dst;
               msg;
               sent = t.clock;
               span = flight_span t ~src ~dst msg;
             })

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  Event_queue.push t.queue ~time:(t.clock +. delay) (Timer f)

let every t ?phase ~interval f =
  if interval <= 0.0 then invalid_arg "Engine.every: interval must be > 0";
  let phase = Option.value phase ~default:interval in
  (* One [Timer] value serves every firing: it re-queues itself. *)
  let rec timer = Timer fire
  and fire () =
    f ();
    Event_queue.push t.queue ~time:(t.clock +. interval) timer
  in
  Event_queue.push t.queue ~time:(t.clock +. phase) timer

let execute t event =
  match event with
  | Timer f ->
      Obs.Counter.incr t.c_timer_fires;
      f ()
  | Deliver { src; dst; msg; sent; span } -> (
      let handler =
        if dst >= 0 && dst < Array.length t.handlers then t.handlers.(dst)
        else None
      in
      match handler with
      | Some handler ->
          Obs.Counter.incr t.c_delivered;
          Obs.Sketch.add t.s_flight (t.clock -. sent);
          Obs.span_end ~fields:[ ("outcome", Obs.Str "deliver") ] t.obs span;
          if Obs.tracing t.obs then trace_msg t "engine.deliver" ~src ~dst msg;
          handler ~from:src msg
      | None ->
          Obs.Counter.incr t.c_ignored;
          Obs.span_end ~fields:[ ("outcome", Obs.Str "ignore") ] t.obs span;
          if Obs.tracing t.obs then trace_msg t "engine.ignore" ~src ~dst msg)

(* Executes the earliest event, due at [time] (its [Event_queue.top_time]),
   advancing the clock to it. *)
let execute_top t time =
  let event = Event_queue.take t.queue in
  if time > t.clock then t.clock <- time;
  execute t event

let run_until t horizon =
  let rec loop () =
    if not (Event_queue.is_empty t.queue) then begin
      let time = Event_queue.top_time t.queue in
      if time <= horizon then begin
        execute_top t time;
        loop ()
      end
    end
  in
  loop ();
  if horizon > t.clock then t.clock <- horizon

let stats t =
  let own = Obs.Counter.own in
  let delivered = own t.c_delivered and ignored = own t.c_ignored in
  {
    sent = own t.c_sent;
    delivered;
    dropped = own t.c_dropped;
    ignored;
    events = own t.c_timer_fires + delivered + ignored;
    dup = own t.c_dup;
    reordered = own t.c_reordered;
    partition_drops = own t.c_partition_drops;
  }
