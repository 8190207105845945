module Message = Basalt_proto.Message
module Node_id = Basalt_proto.Node_id
module Rps = Basalt_proto.Rps
module Rng = Basalt_prng.Rng
module Wire = Basalt_codec.Wire
module Obs = Basalt_obs.Obs

(* Sampler outputs retained as mesh replenishment candidates. *)
let sample_buffer_cap = 32

(* Target eager-push degree D. *)
let degree = 4

(* Lower mesh bound, the churn floor: the heartbeat's mesh rotation
   never demotes below it, and the top-up grafts back towards [degree]. *)
let degree_lo = 2

(* Upper mesh bound: incoming grafts beyond it are refused and the
   heartbeat prunes back down to it. *)
let degree_hi = 8

(* Non-mesh peers receiving an [IHave] digest each heartbeat. *)
let lazy_fanout = 6

(* Heartbeats a message identifier stays advertised in digests. *)
let history = 3

(* Messages retained for deduplication and for serving [IWant]
   requests; the oldest entry is evicted first. *)
let cache_capacity = 512

(* Heartbeats to wait for an announced-but-missing message before
   grafting towards another advertiser and re-requesting. *)
let iwant_timeout = 1

(* Recovery attempts per missing message before giving up. *)
let iwant_retries = 3

type stats = {
  published : int;
  delivered : int;
  duplicates : int;
  ihave_sent : int;
  iwant_sent : int;
  grafts_sent : int;
  prunes_sent : int;
}

type t = {
  node : Node_id.t;
  view : unit -> Node_id.t array;
  rng : Rng.t;
  send : Rps.send;
  obs : Obs.t;
  deliver : Message.mid -> bytes -> unit;
  cache : Mcache.t;
  mesh : Mesh.t;
  wanted : Wanted.t;
  mutable seqno : int;
  mutable samples : Node_id.t list;  (* newest first, no self, no dups *)
  c_published : Obs.Counter.t;
  c_delivered : Obs.Counter.t;
  c_duplicates : Obs.Counter.t;
  c_ihave : Obs.Counter.t;
  c_iwant : Obs.Counter.t;
  c_grafts : Obs.Counter.t;
  c_prunes : Obs.Counter.t;
  s_hops : Obs.Sketch.t;
}

let create ?(obs = Obs.disabled) ~node ~view ~rng ~send ~deliver () =
  {
    node;
    view;
    rng;
    send;
    obs;
    deliver;
    cache = Mcache.create ~capacity:cache_capacity ~history;
    mesh = Mesh.create ();
    wanted = Wanted.create ~timeout:iwant_timeout ~retries:iwant_retries ();
    seqno = 0;
    samples = [];
    c_published = Obs.counter obs "gossip.published";
    c_delivered = Obs.counter obs "gossip.delivered";
    c_duplicates = Obs.counter obs "gossip.duplicates";
    c_ihave = Obs.counter obs "gossip.ihave";
    c_iwant = Obs.counter obs "gossip.iwant";
    c_grafts = Obs.counter obs "gossip.grafts";
    c_prunes = Obs.counter obs "gossip.prunes";
    s_hops = Obs.sketch obs "gossip.hops";
  }

let eager_peers t = Mesh.peers t.mesh

let stats t =
  let own = Obs.Counter.own in
  {
    published = own t.c_published;
    delivered = own t.c_delivered;
    duplicates = own t.c_duplicates;
    ihave_sent = own t.c_ihave;
    iwant_sent = own t.c_iwant;
    grafts_sent = own t.c_grafts;
    prunes_sent = own t.c_prunes;
  }

let send_prune t ~dst =
  Obs.Counter.incr t.c_prunes;
  t.send ~dst Message.Prune

let send_graft t ~dst =
  Obs.Counter.incr t.c_grafts;
  t.send ~dst Message.Graft

let send_iwant t ~dst mids =
  Obs.Counter.incr t.c_iwant;
  t.send ~dst (Message.Iwant mids)

(* A broadcast's identity doubles as its trace id: every event of one
   dissemination carries the same "origin#seqno" string, so the offline
   analyzer can reconstruct per-message hop counts and time-to-delivery
   without protocol knowledge (DESIGN.md §8). *)
let trace_id mid =
  Printf.sprintf "%d#%d"
    (Node_id.to_int mid.Message.origin)
    mid.Message.seqno

let deliver t mid ~hops payload =
  Obs.Counter.incr t.c_delivered;
  Obs.Sketch.add t.s_hops (float_of_int hops);
  if Obs.tracing t.obs then
    Obs.trace t.obs ~name:"gossip.deliver"
      [
        ("trace", Obs.Str (trace_id mid));
        ("node", Obs.Int (Node_id.to_int t.node));
        ("hops", Obs.Int hops);
      ];
  t.deliver mid payload

let eager_push t ~mid ~hops ~payload ~skip =
  let frame = Message.Gossip { mid; hops; payload } in
  List.iter
    (fun p ->
      if
        (not (Node_id.equal p t.node))
        && (not (Node_id.equal p mid.Message.origin))
        && not (List.exists (Node_id.equal p) skip)
      then t.send ~dst:p frame)
    (Mesh.peers t.mesh)

let publish t payload =
  if Bytes.length payload > Wire.max_payload then
    invalid_arg "Gossip.publish: payload too large";
  let mid = { Message.origin = t.node; seqno = t.seqno } in
  t.seqno <- t.seqno + 1;
  Obs.Counter.incr t.c_published;
  if Obs.tracing t.obs then
    Obs.trace t.obs ~name:"gossip.publish"
      [
        ("trace", Obs.Str (trace_id mid));
        ("node", Obs.Int (Node_id.to_int t.node));
        ("bytes", Obs.Int (Bytes.length payload));
      ];
  Mcache.add t.cache mid ~hops:0 payload;
  deliver t mid ~hops:0 payload;
  (* The frame carries the hop distance at receipt: direct mesh peers
     receive it one hop away. *)
  eager_push t ~mid ~hops:1 ~payload ~skip:[];
  mid

let on_data t ~from mid hops payload =
  if Mcache.seen t.cache mid then begin
    Obs.Counter.incr t.c_duplicates;
    (* Plumtree: a redundant eager link is demoted to lazy — but never
       below the target degree, so loss cannot collapse the mesh. *)
    if Mesh.mem t.mesh from && Mesh.degree t.mesh > degree then begin
      Mesh.remove t.mesh from;
      send_prune t ~dst:from
    end
  end
  else begin
    Mcache.add t.cache mid ~hops payload;
    Wanted.received t.wanted mid;
    deliver t mid ~hops payload;
    (* The peer that got a new message to us first is a good eager
       neighbour. *)
    if Mesh.degree t.mesh < degree_hi then
      ignore (Mesh.add t.mesh from);
    let hops' = min (hops + 1) Wire.max_hops in
    eager_push t ~mid ~hops:hops' ~payload ~skip:[ from ]
  end

let on_ihave t ~from mids =
  let fresh =
    Array.to_list mids
    |> List.filter (fun mid ->
           (not (Mcache.seen t.cache mid))
           && Wanted.note t.wanted mid ~holder:from)
  in
  match fresh with
  | [] -> ()
  | _ :: _ -> send_iwant t ~dst:from (Array.of_list fresh)

let on_iwant t ~from mids =
  Array.iter
    (fun mid ->
      match Mcache.find t.cache mid with
      | None -> ()
      | Some (payload, hops) ->
          let hops' = min (hops + 1) Wire.max_hops in
          t.send ~dst:from (Message.Gossip { mid; hops = hops'; payload }))
    mids

let on_graft t ~from =
  if not (Mesh.mem t.mesh from) then begin
    if Mesh.degree t.mesh < degree_hi then
      ignore (Mesh.add t.mesh from)
    else send_prune t ~dst:from
  end

let on_message t ~from msg =
  match msg with
  | Message.Gossip { mid; hops; payload } ->
      on_data t ~from mid hops payload;
      true
  | Message.Ihave mids ->
      on_ihave t ~from mids;
      true
  | Message.Iwant mids ->
      on_iwant t ~from mids;
      true
  | Message.Graft ->
      on_graft t ~from;
      true
  | Message.Prune ->
      Mesh.remove t.mesh from;
      true
  | Message.Pull_request | Message.Pull_reply _ | Message.Push _
  | Message.Push_id _ ->
      false

let on_samples t ps =
  List.iter
    (fun p ->
      if not (Node_id.equal p t.node) then begin
        let without = List.filter (fun q -> not (Node_id.equal p q)) t.samples in
        t.samples <- p :: without
      end)
    ps;
  let rec truncate n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: truncate (n - 1) tl
  in
  t.samples <- truncate sample_buffer_cap t.samples

(* The peers of [view] other than the node itself, in view order. *)
let others t view =
  let n = ref 0 in
  for i = 0 to Array.length view - 1 do
    if not (Node_id.equal view.(i) t.node) then incr n
  done;
  let out = Array.make !n t.node in
  let j = ref 0 in
  for i = 0 to Array.length view - 1 do
    let p = view.(i) in
    if not (Node_id.equal p t.node) then begin
      out.(!j) <- p;
      incr j
    end
  done;
  out

(* Replenishment candidates: fresh samples first (the secure stream is
   what bounds Byzantine mesh membership), then the raw view; each block
   shuffled so repeated heartbeats don't always pick the same peers. *)
let mesh_candidates t view =
  let samples = Array.of_list t.samples in
  Rng.shuffle_in_place t.rng samples;
  let view = others t view in
  Rng.shuffle_in_place t.rng view;
  Array.append samples view

(* Whether [p] is among [a.(i)], ..., [a.(n - 1)]. *)
let rec mem_below a n p i =
  i < n && (Node_id.equal a.(i) p || mem_below a n p (i + 1))

(* Distinct non-mesh peers from the view, in first-seen order, then
   shuffled — the lazy-digest audience. *)
let lazy_candidates t view =
  let out = Array.make (Array.length view) t.node in
  let n = ref 0 in
  for i = 0 to Array.length view - 1 do
    let p = view.(i) in
    if
      (not (Node_id.equal p t.node))
      && (not (Mesh.mem t.mesh p))
      && not (mem_below out !n p 0)
    then begin
      out.(!n) <- p;
      incr n
    end
  done;
  let arr = Array.sub out 0 !n in
  Rng.shuffle_in_place t.rng arr;
  arr

let heartbeat t =
  (* Sends only queue datagrams, so the view is the same at every step
     of one heartbeat: read it once. *)
  let view = t.view () in
  (* 1. Recover announced-but-missing messages: graft towards the next
     advertiser and re-request. *)
  List.iter
    (fun (mid, holder) ->
      if not (Node_id.equal holder t.node) then begin
        if Mesh.degree t.mesh < degree_hi then
          ignore (Mesh.add t.mesh holder);
        send_graft t ~dst:holder;
        send_iwant t ~dst:holder [| mid |]
      end)
    (Wanted.tick t.wanted);
  (* 2. Opportunistic mesh churn: demote the oldest eager peer (never
     below the churn floor) so mesh membership keeps tracking the
     {e current} sample stream — a poisoned sampler degrades the mesh,
     a secure one keeps replenishing it with correct peers. *)
  (match Mesh.peers t.mesh with
  | oldest :: _ when Mesh.degree t.mesh > degree_lo ->
      Mesh.remove t.mesh oldest;
      send_prune t ~dst:oldest
  | _ -> ());
  (* 3. Top the mesh back up to the target degree. *)
  if Mesh.degree t.mesh < degree then begin
    let cands = mesh_candidates t view in
    let i = ref 0 in
    while Mesh.degree t.mesh < degree && !i < Array.length cands do
      let p = cands.(!i) in
      incr i;
      if Mesh.add t.mesh p then send_graft t ~dst:p
    done
  end;
  (* 4. Prune overshoot back down to the upper bound. *)
  while Mesh.degree t.mesh > degree_hi do
    let arr = Array.of_list (Mesh.peers t.mesh) in
    let p = Rng.pick t.rng arr in
    Mesh.remove t.mesh p;
    send_prune t ~dst:p
  done;
  (* 5. Advertise the recent windows to a few lazy peers. *)
  (match Mcache.window t.cache with
  | [] -> ()
  | wnd ->
      let digest = Message.Ihave (Array.of_list wnd) in
      let cands = lazy_candidates t view in
      for i = 0 to min lazy_fanout (Array.length cands) - 1 do
        Obs.Counter.incr t.c_ihave;
        t.send ~dst:cands.(i) digest
      done);
  Mcache.shift t.cache
