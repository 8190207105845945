module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message
module Rps = Basalt_proto.Rps
module View_ops = Basalt_proto.View_ops
module Rng = Basalt_prng.Rng
module Obs = Basalt_obs.Obs

type config = { l : int; keep_old : bool }

let config ?(l = 160) ?(keep_old = true) () =
  if l <= 0 then invalid_arg "Classic.config: l must be positive";
  { l; keep_old }

type t = {
  config : config;
  id : Node_id.t;
  rng : Rng.t;
  send : Rps.send;
  filter : Node_id.t -> bool;
  mutable view : Node_id.t array;
  mutable received : Node_id.t list;
  mutable got_any : bool;
  (* Counter handles onto run-wide totals shared by name (DESIGN.md §8);
     the label distinguishes the bare shuffler from its {!Sps} wrap. *)
  c_rounds : Obs.Counter.t;
  c_pulls : Obs.Counter.t;
  c_pushes : Obs.Counter.t;
  c_samples : Obs.Counter.t;
  c_view_rebuilds : Obs.Counter.t;
}

let default_config = config ()

let create ?(config = default_config) ?(filter = fun _ -> true)
    ?(obs = Obs.disabled) ?(label = "classic") ~id ~bootstrap ~rng ~send () =
  let rng = Rng.split rng in
  let send = Basalt_codec.Metered.send obs ~proto:label send in
  let candidates =
    Array.of_list
      (List.filter
         (fun p -> (not (Node_id.equal p id)) && filter p)
         (Array.to_list bootstrap))
  in
  {
    config;
    id;
    rng;
    send;
    filter;
    view = View_ops.random_subset rng ~k:config.l candidates;
    received = [];
    got_any = false;
    c_rounds = Obs.counter obs (label ^ ".rounds");
    c_pulls = Obs.counter obs (label ^ ".pulls_sent");
    c_pushes = Obs.counter obs (label ^ ".pushes_sent");
    c_samples = Obs.counter obs (label ^ ".samples_emitted");
    c_view_rebuilds = Obs.counter obs (label ^ ".view_rebuilds");
  }

let view t = t.view

let rebuild t =
  if t.got_any then begin
    let pool =
      let received = Array.of_list t.received in
      if t.config.keep_old then Array.append received t.view else received
    in
    let pool =
      View_ops.distinct
        (Array.of_list
           (List.filter
              (fun p -> (not (Node_id.equal p t.id)) && t.filter p)
              (Array.to_list pool)))
    in
    if Array.length pool > 0 then begin
      t.view <- View_ops.random_subset t.rng ~k:t.config.l pool;
      Obs.Counter.incr t.c_view_rebuilds
    end
  end;
  t.received <- [];
  t.got_any <- false

let on_round t =
  Obs.Counter.incr t.c_rounds;
  rebuild t;
  (match View_ops.random_member t.rng t.view with
  | Some p ->
      Obs.Counter.incr t.c_pushes;
      t.send ~dst:p (Message.Push t.view)
  | None -> ());
  match View_ops.random_member t.rng t.view with
  | Some q ->
      Obs.Counter.incr t.c_pulls;
      t.send ~dst:q Message.Pull_request
  | None -> ()

let receive t ids sender =
  t.got_any <- true;
  Array.iter (fun id -> t.received <- id :: t.received) ids;
  match sender with
  | Some s -> t.received <- s :: t.received
  | None -> ()

let on_message t ~from msg =
  match msg with
  | Message.Pull_request -> t.send ~dst:from (Message.Pull_reply t.view)
  | Message.Push ids -> receive t ids (Some from)
  | Message.Pull_reply ids -> receive t ids None
  | Message.Push_id id -> receive t [| id |] (Some from)
  (* Broadcast frames are the lib/gossip layer's; samplers ignore them. *)
  | Message.Gossip _ | Message.Ihave _ | Message.Iwant _ | Message.Graft
  | Message.Prune ->
      ()

let sample t k =
  let rec draw acc remaining =
    if remaining = 0 then acc
    else
      match View_ops.random_member t.rng t.view with
      | Some p ->
          Obs.Counter.incr t.c_samples;
          draw (p :: acc) (remaining - 1)
      | None -> acc
  in
  draw [] k

let evict t p =
  t.view <- Array.of_list (List.filter (fun q -> not (p q)) (Array.to_list t.view))

let sampler ?config ?obs () : Rps.maker =
 fun ~id ~bootstrap ~rng ~send ->
  let t = create ?config ?obs ~id ~bootstrap ~rng ~send () in
  {
    Rps.protocol = "classic";
    node = id;
    on_message = (fun ~from msg -> on_message t ~from msg);
    on_round = (fun () -> on_round t);
    sample_tick = (fun () -> sample t 1);
    current_view = (fun () -> view t);
  }
