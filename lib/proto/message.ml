type mid = { origin : Node_id.t; seqno : int }

let mid_equal a b = Node_id.equal a.origin b.origin && Int.equal a.seqno b.seqno


type t =
  | Pull_request
  | Pull_reply of Node_id.t array
  | Push of Node_id.t array
  | Push_id of Node_id.t
  | Gossip of { mid : mid; hops : int; payload : bytes }
  | Ihave of mid array
  | Iwant of mid array
  | Graft
  | Prune

let kind = function
  | Pull_request -> "pull"
  | Pull_reply _ -> "pull-reply"
  | Push _ -> "push"
  | Push_id _ -> "push-id"
  | Gossip _ -> "gossip"
  | Ihave _ -> "ihave"
  | Iwant _ -> "iwant"
  | Graft -> "graft"
  | Prune -> "prune"

let payload_ids = function
  | Pull_request -> 0
  | Pull_reply view | Push view -> Array.length view
  | Push_id _ -> 1
  | Gossip _ -> 1
  | Ihave mids | Iwant mids -> Array.length mids
  | Graft | Prune -> 0

(* The §4.3 budget model: a 4-byte header, 4 bytes per identifier, 4
   bytes per sequence number, 2 bytes for the hop counter, and the
   broadcast payload verbatim. *)
let bytes_on_wire m =
  let id_size = 4 in
  match m with
  | Pull_request | Pull_reply _ | Push _ | Push_id _ ->
      4 + (id_size * payload_ids m)
  | Gossip { payload; _ } -> 4 + id_size + 4 + 2 + Bytes.length payload
  | Ihave mids | Iwant mids -> 4 + (Array.length mids * (id_size + 4))
  | Graft | Prune -> 4
