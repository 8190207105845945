module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message
module Rps = Basalt_proto.Rps
module Obs = Basalt_obs.Obs

type config = { l : int }

let config ?(l = 160) () =
  if l <= 0 then invalid_arg "Sps.config: l must be positive";
  { l }

(* Outlier threshold: blacklist when count > mean + z·std. *)
let z = 3.0

(* Per-round decay of the frequency statistics. *)
let decay = 0.9

(* Rounds a blacklisting lasts. *)
let blacklist_ttl = 50

(* Rounds of statistics gathering before any blacklisting. *)
let warmup_rounds = 30

type t = {
  stats : Indegree_stats.t;
  blacklist : (int, int) Hashtbl.t;  (* id -> expiry round *)
  round : int ref;  (* shared with the base protocol's filter closure *)
  base : Classic.t;
  c_blacklist_adds : Obs.Counter.t;
}

let blacklisted t id =
  match Hashtbl.find_opt t.blacklist (Node_id.to_int id) with
  | Some expiry -> expiry > !(t.round)
  | None -> false

let default_config = config ()

let create ?(config = default_config) ?(obs = Obs.disabled) ~id ~bootstrap
    ~rng ~send () =
  let stats = Indegree_stats.create ~decay () in
  let blacklist = Hashtbl.create 64 in
  let round = ref 0 in
  let accepts node_id =
    match Hashtbl.find_opt blacklist (Node_id.to_int node_id) with
    | Some expiry -> expiry <= !round
    | None -> true
  in
  let base =
    Classic.create
      ~config:(Classic.config ~l:config.l ~keep_old:false ())
      ~filter:accepts ~obs ~label:"sps" ~id ~bootstrap ~rng ~send ()
  in
  {
    stats;
    blacklist;
    round;
    base;
    c_blacklist_adds = Obs.counter obs "sps.blacklist_adds";
  }

(* Record every identifier carried by an incoming message, run the outlier
   test, and blacklist offenders before the base protocol consumes the
   message. *)
let inspect t ids =
  let armed = !(t.round) > warmup_rounds in
  Array.iter
    (fun id ->
      Indegree_stats.record t.stats id;
      if armed && Indegree_stats.is_outlier t.stats ~z id then begin
        Hashtbl.replace t.blacklist (Node_id.to_int id)
          (!(t.round) + blacklist_ttl);
        Obs.Counter.incr t.c_blacklist_adds;
        Classic.evict t.base (Node_id.equal id)
      end)
    ids

let on_message t ~from msg =
  (match msg with
  | Message.Pull_request -> ()
  | Message.Push ids | Message.Pull_reply ids ->
      inspect t (Array.append ids [| from |])
  | Message.Push_id id -> inspect t [| id; from |]
  (* Broadcast frames are the lib/gossip layer's; samplers ignore them. *)
  | Message.Gossip _ | Message.Ihave _ | Message.Iwant _ | Message.Graft
  | Message.Prune ->
      ());
  if not (blacklisted t from) then Classic.on_message t.base ~from msg

let on_round t =
  incr t.round;
  Indegree_stats.tick t.stats;
  Classic.on_round t.base

let view t = Classic.view t.base
let sample t k = Classic.sample t.base k

let sampler ?config ?obs () : Rps.maker =
 fun ~id ~bootstrap ~rng ~send ->
  let t = create ?config ?obs ~id ~bootstrap ~rng ~send () in
  {
    Rps.protocol = "sps";
    node = id;
    on_message = (fun ~from msg -> on_message t ~from msg);
    on_round = (fun () -> on_round t);
    sample_tick = (fun () -> sample t 1);
    current_view = (fun () -> view t);
  }
