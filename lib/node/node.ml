module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message
module Rps = Basalt_proto.Rps
module Sample_stream = Basalt_core.Sample_stream
module Gossip = Basalt_gossip.Gossip

type app = {
  app_deliver : from:Node_id.t -> Message.t -> bool;
  app_tick : Node_id.t list -> unit;
  app_round : unit -> unit;
}

let null_app =
  {
    app_deliver = (fun ~from:_ _ -> false);
    app_tick = (fun _ -> ());
    app_round = (fun () -> ());
  }

let gossip g =
  {
    app_deliver = (fun ~from msg -> Gossip.on_message g ~from msg);
    app_tick = (fun ps -> Gossip.on_samples g ps);
    app_round = (fun () -> Gossip.heartbeat g);
  }

(* The sampler's entry points are copied out of its record so that each
   event dereferences only the node: at 20 000 nodes every extra
   pointer hop is a cache miss per message. *)
type t = {
  on_message : from:Node_id.t -> Message.t -> unit;
  on_round : unit -> unit;
  sample_tick : unit -> Node_id.t list;
  current_view : unit -> Node_id.t array;
  app : app;
  stream : Sample_stream.t;
}

let create ?(app = null_app) ~stream (s : Rps.t) =
  {
    on_message = s.on_message;
    on_round = s.on_round;
    sample_tick = s.sample_tick;
    current_view = s.current_view;
    app;
    stream;
  }

let view t = t.current_view ()
let stream t = t.stream

let deliver t ~from msg =
  if not (t.app.app_deliver ~from msg) then t.on_message ~from msg

let round t =
  t.on_round ();
  t.app.app_round ()

let tick t =
  let samples = t.sample_tick () in
  Sample_stream.push_list t.stream samples;
  t.app.app_tick samples;
  samples
