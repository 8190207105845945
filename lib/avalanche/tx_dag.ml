module Tx = struct
  type id = int
  type t = { id : id; parents : id list; conflict : int }

  let genesis = { id = 0; parents = []; conflict = -1 }

  let pp ppf tx =
    Format.fprintf ppf "tx%d(parents=%s; conflict=%d)" tx.id
      (String.concat "," (List.map string_of_int tx.parents))
      tx.conflict
end

(* Per-transaction bookkeeping. *)
type entry = {
  tx : Tx.t;
  mutable chit : bool;
  mutable children : Tx.id list;
}

(* Per-conflict-set Snowball state. *)
type conflict_state = {
  mutable members : Tx.id list;  (* insertion order *)
  mutable preferred : Tx.id;
  mutable last : Tx.id;
  mutable count : int;  (* consecutive successes of [last] *)
}

type t = {
  entries : (Tx.id, entry) Hashtbl.t;
  conflicts : (int, conflict_state) Hashtbl.t;
  mutable order : Tx.id list;  (* reverse insertion order *)
}

let create () =
  let t =
    { entries = Hashtbl.create 64; conflicts = Hashtbl.create 64; order = [] }
  in
  Hashtbl.replace t.entries Tx.genesis.Tx.id
    { tx = Tx.genesis; chit = true; children = [] };
  Hashtbl.replace t.conflicts Tx.genesis.Tx.conflict
    {
      members = [ Tx.genesis.Tx.id ];
      preferred = Tx.genesis.Tx.id;
      last = Tx.genesis.Tx.id;
      count = 1;
    };
  t.order <- [ Tx.genesis.Tx.id ];
  t

let known t id = Hashtbl.mem t.entries id
let transactions t = List.rev t.order

let entry t id =
  match Hashtbl.find_opt t.entries id with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Tx_dag: unknown transaction %d" id)


let ancestor_closure t id =
  let visited = Hashtbl.create 16 in
  let out = ref [] in
  let rec go id =
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      let e = entry t id in
      List.iter go e.tx.Tx.parents;
      out := e.tx :: !out
    end
  in
  go id;
  List.rev !out

let insert t tx =
  if known t tx.Tx.id then Ok ()
  else if not (List.for_all (known t) tx.Tx.parents) then
    Error (Printf.sprintf "tx%d has unknown parents" tx.Tx.id)
  else begin
    Hashtbl.replace t.entries tx.Tx.id { tx; chit = false; children = [] };
    t.order <- tx.Tx.id :: t.order;
    List.iter
      (fun p ->
        let pe = entry t p in
        pe.children <- tx.Tx.id :: pe.children)
      tx.Tx.parents;
    (match Hashtbl.find_opt t.conflicts tx.Tx.conflict with
    | Some cs -> cs.members <- cs.members @ [ tx.Tx.id ]
    | None ->
        Hashtbl.replace t.conflicts tx.Tx.conflict
          {
            members = [ tx.Tx.id ];
            preferred = tx.Tx.id;
            last = tx.Tx.id;
            count = 0;
          });
    Ok ()
  end

let conflict_state t id =
  let e = entry t id in
  Hashtbl.find t.conflicts e.tx.Tx.conflict

let is_preferred t id = (conflict_state t id).preferred = id

(* Walk ancestors (memoised per call via a visited set). *)
let fold_ancestry t id f init =
  let visited = Hashtbl.create 16 in
  let rec go acc id =
    if Hashtbl.mem visited id then acc
    else begin
      Hashtbl.add visited id ();
      let e = entry t id in
      List.fold_left go (f acc id) e.tx.Tx.parents
    end
  in
  go init id

let is_strongly_preferred t id =
  fold_ancestry t id (fun acc a -> acc && is_preferred t a) true

let confidence t id =
  (* Chits in the progeny: walk descendants. *)
  let visited = Hashtbl.create 16 in
  let rec go acc id =
    if Hashtbl.mem visited id then acc
    else begin
      Hashtbl.add visited id ();
      let e = entry t id in
      let acc = if e.chit then acc + 1 else acc in
      List.fold_left go acc e.children
    end
  in
  go 0 id

let update_conflict_after_success t id =
  let cs = conflict_state t id in
  if confidence t id > confidence t cs.preferred then cs.preferred <- id;
  if cs.last = id then cs.count <- cs.count + 1
  else begin
    cs.last <- id;
    cs.count <- 1
  end

let record_query_success t id =
  let e = entry t id in
  e.chit <- true;
  (* Update Snowball state for the transaction and all its ancestors,
     ancestors last so their confidences already include the new chit. *)
  fold_ancestry t id (fun () a -> update_conflict_after_success t a) ()

let record_query_failure t id =
  fold_ancestry t id
    (fun () a ->
      let cs = conflict_state t a in
      cs.count <- 0)
    ()

(* The two commitment thresholds: safe early commitment for a
   transaction that never met a conflict, and the conservative rule. *)
let beta1 = 5
let beta2 = 8

let accepted t id =
  let self_ok id =
    if id = Tx.genesis.Tx.id then true
    else begin
      let cs = conflict_state t id in
      let singleton = List.length cs.members = 1 in
      cs.last = id
      && ((singleton && cs.count >= beta1) || cs.count >= beta2)
    end
  in
  fold_ancestry t id (fun acc a -> acc && self_ok a) true
