(* Nested spans around the calls into each layer.

   Every span is aggregated on the fly per name (calls, total and self
   time, self minor words); the first [capacity] spans are also kept in
   flat arrays so they can be written out as JSONL.  Self time is a
   span's duration minus the part its children cover, so the self times
   of all names add up exactly to the duration of the outermost span.
   Spans opened with [event] start a new request id, which every span
   nested under them shares: one id per delivery or timer firing. *)

type t = {
  mutable names : string array;
  mutable layers : string array;
  mutable count : int;
  mutable calls : int array;
  mutable total_ns : int array;
  mutable self_ns : int array;
  mutable self_words : int array;
  (* Open spans, innermost at [depth - 1]. *)
  st_name : int array;
  st_start : int array;
  st_child : int array;
  st_words : int array;
  st_child_words : int array;
  st_rec : int array;
  st_req : int array;
  mutable depth : int;
  mutable next_req : int;
  (* The recorded prefix. *)
  r_name : int array;
  r_start : int array;
  r_end : int array;
  r_parent : int array;
  r_req : int array;
  mutable recorded : int;
}

let max_depth = 32

let create ~capacity =
  let stack () = Array.make max_depth 0 in
  let flat () = Array.make capacity 0 in
  {
    names = [||];
    layers = [||];
    count = 0;
    calls = [||];
    total_ns = [||];
    self_ns = [||];
    self_words = [||];
    st_name = stack ();
    st_start = stack ();
    st_child = stack ();
    st_words = stack ();
    st_child_words = stack ();
    st_rec = stack ();
    st_req = stack ();
    depth = 0;
    next_req = 0;
    r_name = flat ();
    r_start = flat ();
    r_end = flat ();
    r_parent = flat ();
    r_req = flat ();
    recorded = 0;
  }

(* [register t ~layer name] is the code of span [name] in [layer],
   allocated on first use. *)
let register t ~layer name =
  let rec find i =
    if i = t.count then begin
      let grow a x = Array.append a [| x |] in
      t.names <- grow t.names name;
      t.layers <- grow t.layers layer;
      t.calls <- grow t.calls 0;
      t.total_ns <- grow t.total_ns 0;
      t.self_ns <- grow t.self_ns 0;
      t.self_words <- grow t.self_words 0;
      t.count <- t.count + 1;
      i
    end
    else if String.equal t.names.(i) name then i
    else find (i + 1)
  in
  find 0

let minor_words () = int_of_float (Gc.minor_words ())

let open_span t code ~fresh =
  let d = t.depth in
  if d = max_depth then failwith "Spans: nesting too deep";
  let req =
    if fresh || d = 0 then begin
      t.next_req <- t.next_req + 1;
      t.next_req
    end
    else t.st_req.(d - 1)
  in
  let parent = if d = 0 then -1 else t.st_rec.(d - 1) in
  let idx =
    if t.recorded < Array.length t.r_name then begin
      let i = t.recorded in
      t.recorded <- i + 1;
      t.r_name.(i) <- code;
      t.r_parent.(i) <- parent;
      t.r_req.(i) <- req;
      i
    end
    else -1
  in
  t.st_name.(d) <- code;
  t.st_rec.(d) <- idx;
  t.st_req.(d) <- req;
  t.st_child.(d) <- 0;
  t.st_child_words.(d) <- 0;
  t.depth <- d + 1;
  t.st_words.(d) <- minor_words ();
  let start = Clock.now_ns () in
  t.st_start.(d) <- start;
  if idx >= 0 then t.r_start.(idx) <- start

let enter t code = open_span t code ~fresh:false
let event t code = open_span t code ~fresh:true

let leave t =
  let stop = Clock.now_ns () in
  let words = minor_words () in
  let d = t.depth - 1 in
  t.depth <- d;
  let code = t.st_name.(d) in
  let dur = stop - t.st_start.(d) in
  let w = words - t.st_words.(d) in
  t.calls.(code) <- t.calls.(code) + 1;
  t.total_ns.(code) <- t.total_ns.(code) + dur;
  t.self_ns.(code) <- t.self_ns.(code) + dur - t.st_child.(d);
  t.self_words.(code) <- t.self_words.(code) + w - t.st_child_words.(d);
  if d > 0 then begin
    t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
    t.st_child_words.(d - 1) <- t.st_child_words.(d - 1) + w
  end;
  let idx = t.st_rec.(d) in
  if idx >= 0 then t.r_end.(idx) <- stop

let write_jsonl t path =
  let oc = open_out path in
  let origin = if t.recorded > 0 then t.r_start.(0) else 0 in
  for i = 0 to t.recorded - 1 do
    Printf.fprintf oc
      "{\"sid\":%d,\"name\":%S,\"layer\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n"
      i t.names.(t.r_name.(i)) t.layers.(t.r_name.(i))
      (t.r_start.(i) - origin) (t.r_end.(i) - origin) t.r_parent.(i) t.r_req.(i)
  done;
  close_out oc

type stat = {
  name : string;
  layer : string;
  calls : int;
  total_ns : int;
  self_ns : int;
  self_words : int;
}

(* Per-name totals, in registration order. *)
let stats t =
  List.init t.count (fun i ->
      {
        name = t.names.(i);
        layer = t.layers.(i);
        calls = t.calls.(i);
        total_ns = t.total_ns.(i);
        self_ns = t.self_ns.(i);
        self_words = t.self_words.(i);
      })
