module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message
module Rng = Basalt_prng.Rng

type strategy = Flood | Eclipse of Node_id.t | Silent

type t = {
  rng : Rng.t;
  malicious : Node_id.t array;
  correct : Node_id.t array;
  v : int;
  force : float;
  strategy : strategy;
  send : src:Node_id.t -> dst:Node_id.t -> Message.t -> unit;
  mutable pushes : int;
}

let create ~rng ~malicious ~correct ~v ~force ?(strategy = Flood) ~send () =
  if Array.length malicious = 0 then
    invalid_arg "Adversary.create: empty coalition";
  if v <= 0 then invalid_arg "Adversary.create: v must be positive";
  if force < 0.0 then invalid_arg "Adversary.create: negative force";
  {
    rng = Rng.split rng;
    malicious;
    correct;
    v;
    force;
    strategy;
    send;
    pushes = 0;
  }

let malicious_view t =
  Array.init t.v (fun _ -> Rng.pick t.rng t.malicious)

let on_message t ~victim_reply ~from ~to_ msg =
  match msg with
  | Message.Pull_request ->
      if victim_reply then
        t.send ~src:to_ ~dst:from (Message.Pull_reply (malicious_view t))
  | Message.Pull_reply _ | Message.Push _ | Message.Push_id _
  (* Broadcast frames are absorbed silently — the worst case for
     dissemination: a Byzantine mesh member is a black hole that never
     forwards, repairs, or digests (§4-style adversary for lib/gossip). *)
  | Message.Gossip _ | Message.Ihave _ | Message.Iwant _ | Message.Graft
  | Message.Prune ->
      ()

let push_target t =
  match t.strategy with
  | Eclipse victim -> Some victim
  | Flood ->
      if Array.length t.correct = 0 then None
      else Some (Rng.pick t.rng t.correct)
  | Silent -> None

let on_round t =
  match t.strategy with
  | Silent -> ()
  | Flood | Eclipse _ ->
      let expected = t.force *. float_of_int (Array.length t.malicious) in
      let whole = int_of_float expected in
      let frac = expected -. float_of_int whole in
      let count = whole + (if Rng.bernoulli t.rng ~p:frac then 1 else 0) in
      for _ = 1 to count do
        match push_target t with
        | Some dst ->
            let src = Rng.pick t.rng t.malicious in
            t.send ~src ~dst (Message.Push (malicious_view t));
            t.pushes <- t.pushes + 1
        | None -> ()
      done

let pushes_sent t = t.pushes
