module Message = Basalt_proto.Message
module Node_id = Basalt_proto.Node_id

type entry = { payload : bytes; hops : int }

(* Keys are plain int pairs so the generic [Hashtbl] hashes only
   structural integers; the table is never iterated — insertion order
   lives in [order]. *)
type key = int * int

type t = {
  capacity : int;
  history : int;
  table : (key, entry) Hashtbl.t;
  order : key Queue.t;
  windows : Message.mid list array;  (* ring; [head] is current *)
  mutable head : int;
}

let key (m : Message.mid) = (Node_id.to_int m.Message.origin, m.Message.seqno)

let create ~capacity ~history =
  if capacity < 1 then invalid_arg "Mcache.create: capacity < 1";
  if history < 1 then invalid_arg "Mcache.create: history < 1";
  {
    capacity;
    history;
    table = Hashtbl.create (2 * capacity);
    order = Queue.create ();
    windows = Array.make history [];
    head = 0;
  }

let seen t mid = Hashtbl.mem t.table (key mid)

let add t mid ~hops payload =
  let k = key mid in
  if not (Hashtbl.mem t.table k) then begin
    Hashtbl.replace t.table k { payload; hops };
    Queue.push k t.order;
    t.windows.(t.head) <- mid :: t.windows.(t.head);
    while Hashtbl.length t.table > t.capacity do
      let oldest = Queue.pop t.order in
      Hashtbl.remove t.table oldest
    done
  end

let find t mid =
  match Hashtbl.find_opt t.table (key mid) with
  | Some e -> Some (e.payload, e.hops)
  | None -> None

let shift t =
  t.head <- (t.head + 1) mod t.history;
  t.windows.(t.head) <- []

(* Most recent window first: walk the ring backwards from [head]. *)
let window t =
  let out = ref [] in
  for i = t.history - 1 downto 0 do
    let slot = (t.head - i + t.history) mod t.history in
    out := t.windows.(slot) :: !out
  done;
  List.concat !out

