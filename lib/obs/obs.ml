module Counter = struct
  (* A handle counts its own increments in [n] and forwards each one to
     [total], the registry cell for its name.  A registry cell, and a
     disabled dummy, is its own total, so the forward is skipped. *)
  type t = { mutable n : int; total : t }

  let make () =
    let rec c = { n = 0; total = c } in
    c

  let handle total = { n = 0; total }

  let incr c =
    c.n <- c.n + 1;
    let t = c.total in
    if t != c then t.n <- t.n + 1

  let add c k =
    c.n <- c.n + k;
    let t = c.total in
    if t != c then t.n <- t.n + k

  let value c = c.total.n
  let own c = c.n
end

module Gauge = struct
  type t = { mutable v : float }

  let make () = { v = 0.0 }
  let set g x = g.v <- x
  let set_max g x = if x > g.v then g.v <- x
  let value g = g.v
end

module Sketch = struct
  (* A DDSketch-style log-bucketed quantile sketch: values map to the
     bucket [ceil (log_gamma x)], so any quantile estimate is within a
     fixed relative error of the true value, at a fixed footprint
     whatever the number of observations. *)

  let gamma = 1.04
  let relative_error = (gamma -. 1.0) /. (gamma +. 1.0)
  let ln_gamma = Float.log gamma

  (* Value range covered with full accuracy; anything at or below
     [min_value] (zeros and negatives included) lands in the dedicated
     low cell and reads back as 0, anything above [max_value] clamps to
     the top bucket. *)
  let min_value = 1e-9
  let max_value = 1e15
  let min_index = int_of_float (Float.floor (Float.log min_value /. ln_gamma))
  let max_index = int_of_float (Float.ceil (Float.log max_value /. ln_gamma))

  (* Cell 0 is the low cell; cell [c >= 1] holds bucket [min_index + c - 1]. *)
  let cells_len = max_index - min_index + 2

  type t = {
    cells : int array;
    mutable total : int;
    mutable vsum : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let make () =
    {
      cells = Array.make cells_len 0;
      total = 0;
      vsum = 0.0;
      vmin = Float.infinity;
      vmax = Float.neg_infinity;
    }

  (* The sketch handed out by [disabled], shared by every caller and
     every [Pool] domain.  [add] tests for it before writing, so it stays
     empty forever and needs no cells at all. *)
  let inert = { (make ()) with cells = [||] }

  let cell_of x =
    if x <= min_value then 0
    else
      let i = int_of_float (Float.ceil (Float.log x /. ln_gamma)) in
      let i = if i < min_index then min_index else i in
      let i = if i > max_index then max_index else i in
      i - min_index + 1

  let value_of_cell c =
    if c = 0 then 0.0
    else 2.0 *. (gamma ** float_of_int (c - 1 + min_index)) /. (gamma +. 1.0)

  let add s x =
    if s != inert then begin
      let c = cell_of x in
      s.cells.(c) <- s.cells.(c) + 1;
      s.total <- s.total + 1;
      s.vsum <- s.vsum +. x;
      if x < s.vmin then s.vmin <- x;
      if x > s.vmax then s.vmax <- x
    end

  let count s = s.total
  let sum s = s.vsum
  let vmin s = if s.total = 0 then 0.0 else s.vmin
  let vmax s = if s.total = 0 then 0.0 else s.vmax

  let quantile s q =
    if q < 0.0 || q > 1.0 then
      invalid_arg "Obs.Sketch.quantile: q outside [0, 1]";
    if s.total = 0 then 0.0
    else begin
      let target =
        let r = int_of_float (Float.ceil (q *. float_of_int s.total)) in
        if r < 1 then 1 else if r > s.total then s.total else r
      in
      let rec find c cum =
        if c >= cells_len then s.vmax
        else
          let cum = cum + s.cells.(c) in
          if cum >= target then
            (* Clamp to the observed range so extreme quantiles read back
               the exact min/max rather than a bucket midpoint. *)
            Float.min s.vmax (Float.max s.vmin (value_of_cell c))
          else find (c + 1) cum
      in
      find 0 0
    end
end

type instrument =
  | I_counter of Counter.t
  | I_gauge of Gauge.t
  | I_sketch of Sketch.t

type value = Int of int | Float of float | Str of string
type event = { time : float; name : string; fields : (string * value) list }

type t = {
  is_enabled : bool;
  trace_enabled : bool;
  mutable clock : unit -> float;
  (* Registration order, newest first.  Lookup is O(#instruments), which
     is fine: get-or-create runs at node construction, never on the hot
     path, and an association list keeps the registry free of hash
     tables (and of their iteration-order pitfalls). *)
  mutable instruments : (string * instrument) list;
  mutable events_rev : event list;
  mutable n_events : int;
  (* Next causal span id; allocation order is trace order, which is
     deterministic per run (DESIGN.md §8). *)
  mutable next_span : int;
}

let zero_clock () = 0.0

let disabled =
  {
    is_enabled = false;
    trace_enabled = false;
    clock = zero_clock;
    instruments = [];
    events_rev = [];
    n_events = 0;
    next_span = 0;
  }

let create ?(clock = zero_clock) ?(trace = false) () =
  {
    is_enabled = true;
    trace_enabled = trace;
    clock;
    instruments = [];
    events_rev = [];
    n_events = 0;
    next_span = 0;
  }

let enabled t = t.is_enabled
let tracing t = t.trace_enabled
let set_clock t f = if t.is_enabled then t.clock <- f

let kind_name = function
  | I_counter _ -> "counter"
  | I_gauge _ -> "gauge"
  | I_sketch _ -> "sketch"

let get_or_create t name ~make ~cast =
  match List.assoc_opt name t.instruments with
  | Some i -> (
      match cast i with
      | Some x -> x
      | None ->
          invalid_arg
            (Printf.sprintf "Obs: %S already registered as a %s" name
               (kind_name i)))
  | None ->
      let i = make () in
      t.instruments <- (name, i) :: t.instruments;
      match cast i with Some x -> x | None -> assert false

let counter t name =
  if not t.is_enabled then Counter.make ()
  else
    Counter.handle
      (get_or_create t name
         ~make:(fun () -> I_counter (Counter.make ()))
         ~cast:(function I_counter c -> Some c | _ -> None))

let gauge t name =
  if not t.is_enabled then Gauge.make ()
  else
    get_or_create t name
      ~make:(fun () -> I_gauge (Gauge.make ()))
      ~cast:(function I_gauge g -> Some g | _ -> None)

let sketch t name =
  if not t.is_enabled then Sketch.inert
  else
    get_or_create t name
      ~make:(fun () -> I_sketch (Sketch.make ()))
      ~cast:(function I_sketch s -> Some s | _ -> None)

let trace t ~name fields =
  if t.trace_enabled then begin
    t.events_rev <- { time = t.clock (); name; fields } :: t.events_rev;
    t.n_events <- t.n_events + 1
  end

let events t = List.rev t.events_rev

(* --- Spans --- *)

type span =
  | No_span
  | Span of {
      sid : int;
      sname : string;
      t0 : float;
      begin_fields : (string * value) list;
    }

let no_span = No_span

let span t ~name fields =
  if not t.trace_enabled then No_span
  else begin
    let sid = t.next_span in
    t.next_span <- sid + 1;
    Span { sid; sname = name; t0 = t.clock (); begin_fields = fields }
  end

let span_end ?(fields = []) t sp =
  match sp with
  | No_span -> ()
  | Span { sid; sname; t0; begin_fields } ->
      let dur = t.clock () -. t0 in
      trace t ~name:sname
        (("sid", Int sid)
        :: ("t0", Float t0)
        :: ("dur", Float dur)
        :: (begin_fields @ fields))

(* --- Pull-RTT trackers --- *)

type rtt = {
  r_reg : t;
  r_sketch : Sketch.t;
  r_name : string;
  (* peer -> (request time, open span).  Never iterated (only point
     lookups), so Hashtbl order cannot leak into any observable. *)
  r_pending : (int, float * span) Hashtbl.t;
}

(* The one tracker handed out by [disabled], shared by every node of
   every run and by every [Pool] domain.  Nothing ever writes it: the
   operations below test [is_enabled] before touching the pending
   table, and its sketch is the inert one, so there is no state for
   domains to race on, and a node of a disabled run pays one pointer
   instead of a 1,412-cell sketch and a hash table. *)
let disabled_rtt =
  {
    r_reg = disabled;
    r_sketch = Sketch.inert;
    r_name = "";
    r_pending = Hashtbl.create 1;
  }

let rtt t ~name =
  if not t.is_enabled then disabled_rtt
  else
    {
      r_reg = t;
      r_sketch = sketch t (name ^ "_rtt");
      r_name = name;
      r_pending = Hashtbl.create 16;
    }

let rtt_start r ~node ~peer =
  if r.r_reg.is_enabled then begin
    let sp =
      if r.r_reg.trace_enabled then
        span r.r_reg ~name:r.r_name [ ("node", Int node); ("peer", Int peer) ]
      else No_span
    in
    Hashtbl.replace r.r_pending peer (r.r_reg.clock (), sp)
  end

let rtt_finish r ~peer =
  if r.r_reg.is_enabled then
    match Hashtbl.find_opt r.r_pending peer with
    | Some (t0, sp) ->
        Hashtbl.remove r.r_pending peer;
        Sketch.add r.r_sketch (r.r_reg.clock () -. t0);
        span_end r.r_reg sp
    | None -> ()

let rtt_abandon r ~peer =
  if r.r_reg.is_enabled then Hashtbl.remove r.r_pending peer

let rtt_pending r = Hashtbl.length r.r_pending

(* Fixed-format floats: the same float always renders the same bytes, so
   traces and snapshots diff clean across -j N.  A rendered float always
   carries a '.' or an exponent, so [event_of_json] can tell [Float 3.]
   from [Int 3] and typed round-trips are exact. *)
let float_string x =
  let s = Printf.sprintf "%.12g" x in
  if
    String.exists
      (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n' || c = 'a')
      s
  then s
  else s ^ ".0"

let escape_json s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let value_to_json = function
  | Int n -> string_of_int n
  | Float x -> float_string x
  | Str s -> Printf.sprintf "\"%s\"" (escape_json s)

let event_to_json ?(extra = []) e =
  let buf = Buffer.create 96 in
  Buffer.add_string buf "{\"t\":";
  Buffer.add_string buf (float_string e.time);
  Buffer.add_string buf ",\"ev\":\"";
  Buffer.add_string buf (escape_json e.name);
  Buffer.add_char buf '"';
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf ",\"";
      Buffer.add_string buf (escape_json k);
      Buffer.add_string buf "\":";
      Buffer.add_string buf (value_to_json v))
    (extra @ e.fields);
  Buffer.add_char buf '}';
  Buffer.contents buf

let events_to_jsonl ?extra t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (event_to_json ?extra e);
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

(* A hand-rolled parser for exactly the JSON subset event_to_json emits:
   one flat object of string/number values per line. *)
let event_of_json line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do incr pos done
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then (incr pos; true) else false
  in
  let parse_string () =
    if not (expect '"') then None
    else begin
      let buf = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then None
        else
          match line.[!pos] with
          | '"' -> incr pos; Some (Buffer.contents buf)
          | '\\' when !pos + 1 < n ->
              let c = line.[!pos + 1] in
              pos := !pos + 2;
              (match c with
              | 'n' -> Buffer.add_char buf '\n'; loop ()
              | 't' -> Buffer.add_char buf '\t'; loop ()
              | 'r' -> Buffer.add_char buf '\r'; loop ()
              | 'u' ->
                  if !pos + 4 <= n then begin
                    (match int_of_string_opt ("0x" ^ String.sub line !pos 4) with
                    | Some code when code < 0x80 ->
                        Buffer.add_char buf (Char.chr code)
                    | _ -> ());
                    pos := !pos + 4;
                    loop ()
                  end
                  else None
              | c -> Buffer.add_char buf c; loop ())
          | c -> incr pos; Buffer.add_char buf c; loop ()
      in
      loop ()
    end
  in
  let parse_number () =
    skip_ws ();
    let start = !pos in
    while
      !pos < n
      && (match line.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr pos
    done;
    if !pos = start then None
    else
      let s = String.sub line start (!pos - start) in
      let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s in
      if is_float then Option.map (fun x -> Float x) (float_of_string_opt s)
      else Option.map (fun i -> Int i) (int_of_string_opt s)
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Option.map (fun s -> Str s) (parse_string ())
    | _ -> parse_number ()
  in
  let rec parse_members acc =
    match parse_string () with
    | None -> None
    | Some key -> (
        if not (expect ':') then None
        else
          match parse_value () with
          | None -> None
          | Some v ->
              let acc = (key, v) :: acc in
              skip_ws ();
              if expect ',' then (skip_ws (); parse_members acc)
              else if expect '}' then Some (List.rev acc)
              else None)
  in
  if not (expect '{') then None
  else
    match parse_members [] with
    | None -> None
    | Some members -> (
        let time =
          match List.assoc_opt "t" members with
          | Some (Float x) -> Some x
          | Some (Int i) -> Some (float_of_int i)
          | _ -> None
        in
        let name =
          match List.assoc_opt "ev" members with
          | Some (Str s) -> Some s
          | _ -> None
        in
        match (time, name) with
        | Some time, Some name ->
            let fields =
              List.filter (fun (k, _) -> k <> "t" && k <> "ev") members
            in
            Some { time; name; fields }
        | _ -> None)

let in_order t = List.rev t.instruments

let snapshot t =
  List.filter_map
    (fun (name, i) ->
      match i with
      | I_counter c -> Some (name, float_of_int (Counter.value c))
      | I_gauge g -> Some (name, Gauge.value g)
      | I_sketch _ -> None)
    (in_order t)

let render t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, i) ->
      (match i with
      | I_counter c ->
          Buffer.add_string buf
            (Printf.sprintf "counter    %-32s %d" name (Counter.value c))
      | I_gauge g ->
          Buffer.add_string buf
            (Printf.sprintf "gauge      %-32s %s" name
               (float_string (Gauge.value g)))
      | I_sketch s ->
          let pcts =
            if Sketch.count s = 0 then ""
            else
              Printf.sprintf " p50=%s p90=%s p99=%s max=%s"
                (float_string (Sketch.quantile s 0.5))
                (float_string (Sketch.quantile s 0.9))
                (float_string (Sketch.quantile s 0.99))
                (float_string (Sketch.vmax s))
          in
          Buffer.add_string buf
            (Printf.sprintf "sketch     %-32s count=%d sum=%s%s" name
               (Sketch.count s)
               (float_string (Sketch.sum s))
               pcts));
      Buffer.add_char buf '\n')
    (in_order t);
  if t.trace_enabled then
    Buffer.add_string buf (Printf.sprintf "trace      %-32s %d\n" "events" t.n_events);
  Buffer.contents buf

(* --- Prometheus text exposition (version 0.0.4) --- *)

let prom_name s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    s

let render_prometheus t =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  List.iter
    (fun (name, i) ->
      let n = prom_name name in
      match i with
      | I_counter c ->
          line "# TYPE %s counter" n;
          line "%s %d" n (Counter.value c)
      | I_gauge g ->
          line "# TYPE %s gauge" n;
          line "%s %s" n (float_string (Gauge.value g))
      | I_sketch s ->
          line "# TYPE %s summary" n;
          if Sketch.count s > 0 then begin
            line "%s{quantile=\"0.5\"} %s" n (float_string (Sketch.quantile s 0.5));
            line "%s{quantile=\"0.9\"} %s" n (float_string (Sketch.quantile s 0.9));
            line "%s{quantile=\"0.99\"} %s" n (float_string (Sketch.quantile s 0.99))
          end;
          line "%s_sum %s" n (float_string (Sketch.sum s));
          line "%s_count %d" n (Sketch.count s))
    (in_order t);
  Buffer.contents buf
