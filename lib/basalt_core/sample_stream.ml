module Node_id = Basalt_proto.Node_id

(* The buffer starts empty and doubles as samples arrive, from
   [initial_size] up to [capacity]; until it reaches [capacity] it is
   never wrapped, so its [filled] entries are in push order and [next]
   equals [filled].  Once full at [capacity] it is a ring: [next] is the
   oldest entry, overwritten by the next push.  A run emits few samples
   per node, so most streams never grow to their window. *)
type t = {
  mutable buf : Node_id.t array;
  capacity : int;
  mutable next : int;  (* next write position *)
  mutable filled : int;  (* number of valid entries, <= capacity *)
  mutable total : int;
}

let initial_size = 8

let create ~capacity =
  if capacity <= 0 then invalid_arg "Sample_stream.create: capacity <= 0";
  { buf = [||]; capacity; next = 0; filled = 0; total = 0 }

(* Called on a full buffer smaller than [capacity]: its entries are in
   push order, so they keep their indices and the cursor moves to the
   first new slot. *)
let grow t =
  let size = Array.length t.buf in
  let buf =
    Array.make (Int.min t.capacity (Int.max initial_size (2 * size)))
      (Node_id.of_int 0)
  in
  Array.blit t.buf 0 buf 0 size;
  t.buf <- buf;
  t.next <- size

let push t id =
  let size = Array.length t.buf in
  if Int.equal t.filled size && Int.compare size t.capacity < 0 then grow t;
  t.buf.(t.next) <- id;
  t.next <- (t.next + 1) mod Array.length t.buf;
  t.filled <- Int.min (t.filled + 1) t.capacity;
  t.total <- t.total + 1

let push_list t ids = List.iter (push t) ids
let total t = t.total
let retained t = t.filled

(* The buffer index of the [i]-th most recent sample, [0 <= i < filled]. *)
let pos t i =
  let size = Array.length t.buf in
  (t.next - 1 - i + size) mod size

let recent t n =
  let n = Int.min n t.filled in
  (* Iterate oldest-to-newest, prepending, so the result is newest first. *)
  let out = ref [] in
  for i = n - 1 downto 0 do
    out := t.buf.(pos t i) :: !out
  done;
  !out

let iter f t =
  for i = t.filled - 1 downto 0 do
    f t.buf.(pos t i)
  done

let proportion p t =
  if t.filled = 0 then 0.0
  else begin
    let hits = ref 0 in
    iter (fun id -> if p id then incr hits) t;
    float_of_int !hits /. float_of_int t.filled
  end

let draw t rng ~k =
  if t.filled = 0 then [||]
  else
    Array.init k (fun _ ->
        let i = Basalt_prng.Rng.int rng t.filled in
        t.buf.(pos t i))
