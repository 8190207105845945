(* Tests for basalt.obs: registry determinism, instrument semantics,
   the disabled sink's zero-interaction guarantee, and the trace
   JSONL round-trip. *)

module Obs = Basalt_obs.Obs

(* The trace as programs read it: the registry's JSONL, parsed back. *)
let events t =
  List.filter_map Obs.event_of_json
    (String.split_on_char '\n' (Obs.events_to_jsonl t))

let event_count t = List.length (events t)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

(* --- Registry --- *)

let registry_get_or_create () =
  let t = Obs.create () in
  let c1 = Obs.counter t "a" in
  let c2 = Obs.counter t "a" in
  Obs.Counter.incr c1;
  Obs.Counter.add c2 2;
  check_int "handles of one name share a total" 3 (Obs.Counter.value c1);
  check_int "each handle keeps its own count" 1 (Obs.Counter.own c1);
  check_int "own of the second handle" 2 (Obs.Counter.own c2);
  let g = Obs.gauge t "g" in
  Obs.Gauge.set g 1.5;
  check_float "gauge set" 1.5 (Obs.Gauge.value (Obs.gauge t "g"))

let registry_kind_clash () =
  let t = Obs.create () in
  ignore (Obs.counter t "x");
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Obs: \"x\" already registered as a counter") (fun () ->
      ignore (Obs.gauge t "x"))

let registry_snapshot_order () =
  (* Snapshot order is registration order, not alphabetical and not
     hash order — that is what keeps reports bit-identical. *)
  let t = Obs.create () in
  Obs.Counter.incr (Obs.counter t "zz");
  Obs.Gauge.set (Obs.gauge t "aa") 2.0;
  Obs.Counter.add (Obs.counter t "mm") 5;
  Alcotest.(check (list (pair string (float 1e-9))))
    "registration order"
    [ ("zz", 1.0); ("aa", 2.0); ("mm", 5.0) ]
    (Obs.snapshot t)

let registry_snapshot_deterministic () =
  (* Two registries fed the same operations render identically,
     regardless of interleaved lookups. *)
  let feed t =
    let c = Obs.counter t "basalt.rounds" in
    let g = Obs.gauge t "basalt.max_msg_bytes" in
    let s = Obs.sketch t "basalt.msg_bytes" in
    for i = 1 to 10 do
      Obs.Counter.incr c;
      Obs.Gauge.set_max g (float_of_int (i * 100));
      Obs.Sketch.add s (float_of_int (i * 100));
      (* re-lookup mid-stream must hit the same cells *)
      Obs.Counter.incr (Obs.counter t "basalt.rounds")
    done;
    Obs.render t
  in
  check_string "bit-identical renders" (feed (Obs.create ()))
    (feed (Obs.create ()))

(* --- Counters and gauges --- *)

let counter_semantics () =
  let t = Obs.create () in
  let c = Obs.counter t "c" in
  check_int "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  check_int "accumulates" 42 (Obs.Counter.value c)

let gauge_semantics () =
  let t = Obs.create () in
  let g = Obs.gauge t "g" in
  check_float "starts at zero" 0.0 (Obs.Gauge.value g);
  Obs.Gauge.set g 5.0;
  Obs.Gauge.set g 3.0;
  check_float "set overwrites" 3.0 (Obs.Gauge.value g);
  Obs.Gauge.set_max g 2.0;
  check_float "set_max keeps max" 3.0 (Obs.Gauge.value g);
  Obs.Gauge.set_max g 7.0;
  check_float "set_max raises" 7.0 (Obs.Gauge.value g)

(* --- Disabled sink --- *)

let disabled_zero_interaction () =
  check_bool "not enabled" false (Obs.enabled Obs.disabled);
  check_bool "not tracing" false (Obs.tracing Obs.disabled);
  (* Dummies are fresh: mutating one is invisible to the next lookup,
     so nothing is ever shared between call sites (or domains). *)
  let c = Obs.counter Obs.disabled "x" in
  Obs.Counter.incr c;
  check_int "dummy mutated locally" 1 (Obs.Counter.value c);
  check_int "next lookup is fresh" 0
    (Obs.Counter.value (Obs.counter Obs.disabled "x"));
  (* Sketches are the exception: every lookup hands out the same inert
     sketch, and adding to it leaves it empty. *)
  let s = Obs.sketch Obs.disabled "s" in
  check_bool "one shared sketch" true (s == Obs.sketch Obs.disabled "other");
  List.iter (Obs.Sketch.add s) [ 3.0; 0.0; 1e6 ];
  check_int "inert count" 0 (Obs.Sketch.count s);
  check_float "inert sum" 0.0 (Obs.Sketch.sum s);
  List.iter
    (fun q ->
      check_float (Printf.sprintf "inert q=%g" q) 0.0 (Obs.Sketch.quantile s q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  Obs.trace Obs.disabled ~name:"e" [ ("k", Obs.Int 1) ];
  check_int "no events recorded" 0 (event_count Obs.disabled);
  check_bool "empty snapshot" true (Obs.snapshot Obs.disabled = []);
  (* set_clock must not mutate the global disabled value *)
  Obs.set_clock Obs.disabled (fun () -> 99.0);
  Obs.trace Obs.disabled ~name:"e" [];
  check_int "still no events" 0 (event_count Obs.disabled)

(* --- Tracing --- *)

let trace_records_events () =
  let now = ref 1.0 in
  let t = Obs.create ~clock:(fun () -> !now) ~trace:true () in
  check_bool "tracing on" true (Obs.tracing t);
  Obs.trace t ~name:"engine.send" [ ("src", Obs.Int 0); ("dst", Obs.Int 1) ];
  now := 2.5;
  Obs.trace t ~name:"engine.deliver" [ ("kind", Obs.Str "pull") ];
  check_int "two events" 2 (event_count t);
  match events t with
  | [ e1; e2 ] ->
      check_float "first stamp" 1.0 e1.Obs.time;
      check_string "first name" "engine.send" e1.Obs.name;
      check_float "second stamp" 2.5 e2.Obs.time;
      check_bool "fields kept in order" true
        (e1.Obs.fields = [ ("src", Obs.Int 0); ("dst", Obs.Int 1) ])
  | _ -> Alcotest.fail "expected two events"

let trace_off_by_default () =
  let t = Obs.create () in
  check_bool "instruments only" false (Obs.tracing t);
  Obs.trace t ~name:"e" [];
  check_int "trace is a no-op" 0 (event_count t)

let jsonl_round_trip () =
  let t = Obs.create ~clock:(fun () -> 3.25) ~trace:true () in
  Obs.trace t ~name:"msg"
    [
      ("src", Obs.Int 7);
      ("bytes", Obs.Float 88.5);
      ("kind", Obs.Str "pull-reply");
      ("quoted", Obs.Str "a\"b\\c");
    ];
  let line = String.trim (Obs.events_to_jsonl t) in
  check_bool "looks like json" true
    (String.length line > 2 && line.[0] = '{'
    && line.[String.length line - 1] = '}');
  match Obs.event_of_json line with
  | None -> Alcotest.fail "round trip parse failed"
  | Some e ->
      check_float "time survives" 3.25 e.Obs.time;
      check_string "name survives" "msg" e.Obs.name;
      check_bool "fields survive" true
        (e.Obs.fields
        = [
            ("src", Obs.Int 7);
            ("bytes", Obs.Float 88.5);
            ("kind", Obs.Str "pull-reply");
            ("quoted", Obs.Str "a\"b\\c");
          ])

let jsonl_extra_fields () =
  let t = Obs.create ~trace:true () in
  Obs.trace t ~name:"e" [ ("k", Obs.Int 1) ];
  let line =
    String.trim (Obs.events_to_jsonl ~extra:[ ("proto", Obs.Str "basalt") ] t)
  in
  match Obs.event_of_json line with
  | None -> Alcotest.fail "parse with extra failed"
  | Some e ->
      check_bool "extra comes back as a field" true
        (List.mem_assoc "proto" e.Obs.fields
        && List.assoc "proto" e.Obs.fields = Obs.Str "basalt")

let event_of_json_rejects_garbage () =
  check_bool "not json" true (Obs.event_of_json "nonsense" = None);
  check_bool "missing keys" true (Obs.event_of_json "{\"a\":1}" = None);
  check_bool "empty" true (Obs.event_of_json "" = None)

(* --- The quantile sketch --- *)

let sketch_semantics () =
  let s = Obs.Sketch.make () in
  check_float "empty quantile" 0.0 (Obs.Sketch.quantile s 0.5);
  for i = 1 to 1000 do
    Obs.Sketch.add s (float_of_int i)
  done;
  check_int "count" 1000 (Obs.Sketch.count s);
  check_float "sum exact" 500500.0 (Obs.Sketch.sum s);
  check_float "min exact" 1.0 (Obs.Sketch.vmin s);
  check_float "max exact" 1000.0 (Obs.Sketch.vmax s);
  let eps = Obs.Sketch.relative_error in
  List.iter
    (fun (q, true_v) ->
      let est = Obs.Sketch.quantile s q in
      check_bool
        (Printf.sprintf "q=%g within relative error (est %g, true %g)" q est
           true_v)
        true
        (Float.abs (est -. true_v) <= (eps +. 1e-9) *. true_v))
    [ (0.5, 500.0); (0.9, 900.0); (0.99, 990.0) ];
  check_float "q=0 exact here" 1.0 (Obs.Sketch.quantile s 0.0);
  check_float "q=1 exact here" 1000.0 (Obs.Sketch.quantile s 1.0);
  (* Zeros and negatives land in the low cell; the low cell reads back
     as 0, clamped into the observed range. *)
  let z = Obs.Sketch.make () in
  Obs.Sketch.add z 0.0;
  Obs.Sketch.add z (-5.0);
  check_float "low cell reads zero" 0.0 (Obs.Sketch.quantile z 1.0);
  check_float "negative min preserved" (-5.0) (Obs.Sketch.vmin z)

(* --- Spans --- *)

let span_emits_single_event () =
  let now = ref 2.0 in
  let t = Obs.create ~clock:(fun () -> !now) ~trace:true () in
  let sp = Obs.span t ~name:"basalt.pull" [ ("src", Obs.Int 3) ] in
  check_int "nothing emitted while open" 0 (event_count t);
  now := 5.5;
  Obs.span_end ~fields:[ ("ok", Obs.Int 1) ] t sp;
  match events t with
  | [ e ] ->
      check_string "named after the span" "basalt.pull" e.Obs.name;
      check_float "stamped at close" 5.5 e.Obs.time;
      check_bool "sid, t0, dur, then both field sets" true
        (e.Obs.fields
        = [
            ("sid", Obs.Int 0);
            ("t0", Obs.Float 2.0);
            ("dur", Obs.Float 3.5);
            ("src", Obs.Int 3);
            ("ok", Obs.Int 1);
          ])
  | _ -> Alcotest.fail "expected exactly one event"

let span_ids_sequential () =
  let t = Obs.create ~trace:true () in
  let a = Obs.span t ~name:"a" [] in
  let b = Obs.span t ~name:"b" [] in
  (* Close out of order: ids were fixed at open time. *)
  Obs.span_end t b;
  Obs.span_end t a;
  match events t with
  | [ eb; ea ] ->
      check_bool "b has sid 1" true (List.assoc "sid" eb.Obs.fields = Obs.Int 1);
      check_bool "a has sid 0" true (List.assoc "sid" ea.Obs.fields = Obs.Int 0)
  | _ -> Alcotest.fail "expected two events"

let span_noop_without_tracing () =
  let t = Obs.create () in
  let sp = Obs.span t ~name:"x" [ ("k", Obs.Int 1) ] in
  Obs.span_end t sp;
  check_int "no events" 0 (event_count t);
  (* The disabled sink behaves the same. *)
  Obs.span_end Obs.disabled (Obs.span Obs.disabled ~name:"y" []);
  check_int "disabled emits nothing" 0 (event_count Obs.disabled)

(* --- Render --- *)

let render_lists_instruments () =
  let t = Obs.create () in
  Obs.Counter.add (Obs.counter t "basalt.rounds") 30;
  Obs.Gauge.set (Obs.gauge t "basalt.max_msg_bytes") 94.0;
  Obs.Sketch.add (Obs.sketch t "basalt.msg_bytes") 94.0;
  let r = Obs.render t in
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and rl = String.length r in
        let rec scan i = i + nl <= rl && (String.sub r i nl = needle || scan (i + 1)) in
        scan 0
      in
      check_bool (Printf.sprintf "render mentions %s" needle) true found)
    [ "basalt.rounds"; "basalt.max_msg_bytes"; "basalt.msg_bytes"; "30" ]

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let render_shows_percentiles () =
  let t = Obs.create () in
  let s = Obs.sketch t "basalt.pull_rtt" in
  for i = 1 to 100 do
    Obs.Sketch.add s (float_of_int i)
  done;
  let r = Obs.render t in
  check_bool "sketch line present" true (contains r "sketch     basalt.pull_rtt");
  check_bool "sketch p50 present" true (contains r "p50=");
  check_bool "sketch p99 present" true (contains r "p99=");
  check_bool "sketch max exact" true (contains r "max=100.0")

let prometheus_rendering () =
  let t = Obs.create () in
  Obs.Counter.add (Obs.counter t "net.datagrams_out") 12;
  Obs.Gauge.set (Obs.gauge t "basalt.view_size") 160.0;
  let h = Obs.sketch t "net.msg_bytes" in
  List.iter (Obs.Sketch.add h) [ 5.0; 15.0; 99.0 ];
  ignore (Obs.sketch t "gossip.hop_latency");
  let p = Obs.render_prometheus t in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "exposition has %S" needle) true
        (contains p needle))
    [
      "# TYPE net_datagrams_out counter\nnet_datagrams_out 12\n";
      "# TYPE basalt_view_size gauge\nbasalt_view_size 160.0\n";
      "# TYPE net_msg_bytes summary\nnet_msg_bytes{quantile=\"0.5\"} ";
      "net_msg_bytes{quantile=\"0.99\"} 99.0\n";
      "net_msg_bytes_sum 119.0\nnet_msg_bytes_count 3\n";
      (* An empty sketch has no quantile lines. *)
      "# TYPE gossip_hop_latency summary\ngossip_hop_latency_sum 0.0\n\
       gossip_hop_latency_count 0\n";
    ]

(* --- properties: order-independence of commutative instrument ops ---

   Instrument values (and therefore snapshots, renders, and trace
   columns) must depend only on the multiset of operations applied, not
   on their interleaving — that is what keeps `-j N` traces
   bit-identical (DESIGN.md §8).  Operands are integer-valued so float
   accumulation is exact and the comparison can be byte-for-byte. *)

module Gen = QCheck2.Gen
module Test = QCheck2.Test
module Print = QCheck2.Print

type op = Incr | Add of int | Set_max of int | Observe of int

let print_op = function
  | Incr -> "Incr"
  | Add n -> Printf.sprintf "Add %d" n
  | Set_max n -> Printf.sprintf "Set_max %d" n
  | Observe n -> Printf.sprintf "Observe %d" n

let op_gen =
  Gen.oneof
    [
      Gen.return Incr;
      Gen.map (fun n -> Add n) (Gen.int_bound 100);
      Gen.map (fun n -> Set_max n) (Gen.int_bound 1000);
      Gen.map (fun n -> Observe n) (Gen.int_bound 1000);
    ]

let ops_gen = Gen.list_size (Gen.int_bound 40) op_gen

let quantiles = [ 0.5; 0.9; 0.99 ]

let apply_ops ops =
  let t = Obs.create () in
  let c = Obs.counter t "basalt.rounds" in
  let g = Obs.gauge t "basalt.max_msg_bytes" in
  let s = Obs.sketch t "basalt.msg_bytes" in
  List.iter
    (function
      | Incr -> Obs.Counter.incr c
      | Add n -> Obs.Counter.add c n
      | Set_max n -> Obs.Gauge.set_max g (float_of_int n)
      | Observe n -> Obs.Sketch.add s (float_of_int n))
    ops;
  ( Obs.render t,
    Obs.snapshot t,
    (Obs.Sketch.count s, Obs.Sketch.sum s, Obs.Sketch.vmax s),
    List.map (Obs.Sketch.quantile s) quantiles )

let prop_snapshot_order_independent =
  Test.make ~name:"equal op multisets render byte-identically" ~count:150
    ~print:(Print.list print_op) ops_gen
    (fun ops -> apply_ops ops = apply_ops (List.rev ops))

(* Reference model: instrument values are simple folds over the ops.
   The sketch's count, sum and max are exact; each quantile is within
   [relative_error] of the exact nearest-rank order statistic. *)
let prop_snapshot_matches_model =
  Test.make ~name:"instrument values match a fold over the ops" ~count:150
    ~print:(Print.list print_op) ops_gen
    (fun ops ->
      let _, snapshot, sketch, estimates = apply_ops ops in
      let counter =
        List.fold_left
          (fun acc -> function Incr -> acc + 1 | Add n -> acc + n | _ -> acc)
          0 ops
      in
      let gauge =
        List.fold_left
          (fun acc -> function
            | Set_max n -> Float.max acc (float_of_int n) | _ -> acc)
          0.0 ops
      in
      let observed =
        Array.of_list
          (List.filter_map
             (function Observe n -> Some (float_of_int n) | _ -> None)
             ops)
      in
      Array.sort Float.compare observed;
      let n = Array.length observed in
      let within q est =
        if n = 0 then est = 0.0
        else
          let r = int_of_float (Float.ceil (q *. float_of_int n)) in
          let exact = observed.(max 1 (min n r) - 1) in
          Float.abs (est -. exact)
          <= (Obs.Sketch.relative_error +. 1e-9) *. exact
      in
      (* snapshot carries counters and gauges; the sketch is read
         directly. *)
      snapshot
      = [
          ("basalt.rounds", float_of_int counter);
          ("basalt.max_msg_bytes", gauge);
        ]
      && sketch
         = ( n,
             Array.fold_left ( +. ) 0.0 observed,
             if n = 0 then 0.0 else observed.(n - 1) )
      && List.for_all2 within quantiles estimates)

(* Counter handles: several handles of one name on an enabled registry,
   plus dummies from [Obs.disabled].  Each handle's [own] is what was
   added through it; [value] from any enabled handle is the sum, which
   is also what the snapshot and the Prometheus exposition report; a
   dummy is its own total and sees nobody else's increments. *)
let n_disabled = 2

let handle_ops_gen =
  Gen.bind (Gen.int_range 1 4) (fun k ->
      Gen.map
        (fun ops -> (k, ops))
        (Gen.list_size (Gen.int_bound 40)
           (Gen.pair (Gen.int_bound (k + n_disabled - 1)) (Gen.int_bound 5))))

let prop_counter_handles =
  Test.make ~name:"counter handles: own per handle, value is the sum"
    ~count:200
    ~print:(Print.pair Print.int (Print.list (Print.pair Print.int Print.int)))
    handle_ops_gen
    (fun (k, ops) ->
      let t = Obs.create () in
      let handles =
        Array.init (k + n_disabled) (fun i ->
            Obs.counter (if i < k then t else Obs.disabled) "net.x")
      in
      let expected = Array.make (k + n_disabled) 0 in
      (* amount 0 stands for [incr] *)
      List.iter
        (fun (h, amount) ->
          if amount = 0 then Obs.Counter.incr handles.(h)
          else Obs.Counter.add handles.(h) amount;
          expected.(h) <- expected.(h) + max amount 1)
        ops;
      let sum = Array.fold_left ( + ) 0 (Array.sub expected 0 k) in
      let late = Obs.counter t "net.x" in
      Array.for_all2 (fun c e -> Obs.Counter.own c = e) handles expected
      && Obs.Counter.own late = 0
      && Array.for_all
           (fun c -> Obs.Counter.value c = sum)
           (Array.append (Array.sub handles 0 k) [| late |])
      && Obs.snapshot t = [ ("net.x", float_of_int sum) ]
      && contains (Obs.render_prometheus t) (Printf.sprintf "\nnet_x %d\n" sum)
      && Array.for_all
           (fun i -> Obs.Counter.value handles.(i) = expected.(i))
           (Array.init n_disabled (fun j -> k + j)))

(* JSON round-trip: any event the generator can produce survives
   [event_to_json] → [event_of_json] structurally intact (issue 8). *)
let print_event (e : Obs.event) =
  Printf.sprintf "{t=%.17g; ev=%S; fields=%s}" e.Obs.time e.Obs.name
    (Print.list
       (fun (k, v) ->
         Printf.sprintf "(%S, %s)" k
           (match v with
           | Obs.Int n -> Printf.sprintf "Int %d" n
           | Obs.Float x -> Printf.sprintf "Float %.17g" x
           | Obs.Str s -> Printf.sprintf "Str %S" s))
       e.Obs.fields)

let prop_event_json_round_trip =
  Test.make ~name:"event_of_json (event_to_json e) = Some e" ~count:300
    ~print:print_event
    Prop.Gens.obs_event
    (fun e -> Obs.event_of_json (Obs.event_to_json e) = Some e)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "get or create" `Quick registry_get_or_create;
          Alcotest.test_case "kind clash" `Quick registry_kind_clash;
          Alcotest.test_case "snapshot order" `Quick registry_snapshot_order;
          Alcotest.test_case "deterministic render" `Quick
            registry_snapshot_deterministic;
        ] );
      ( "instruments",
        [
          Alcotest.test_case "counter" `Quick counter_semantics;
          Alcotest.test_case "gauge" `Quick gauge_semantics;
          Alcotest.test_case "sketch semantics" `Quick sketch_semantics;
        ] );
      ( "spans",
        [
          Alcotest.test_case "emits single event" `Quick
            span_emits_single_event;
          Alcotest.test_case "sequential ids" `Quick span_ids_sequential;
          Alcotest.test_case "noop without tracing" `Quick
            span_noop_without_tracing;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "zero interaction" `Quick
            disabled_zero_interaction;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records events" `Quick trace_records_events;
          Alcotest.test_case "off by default" `Quick trace_off_by_default;
          Alcotest.test_case "jsonl round trip" `Quick jsonl_round_trip;
          Alcotest.test_case "jsonl extra fields" `Quick jsonl_extra_fields;
          Alcotest.test_case "rejects garbage" `Quick
            event_of_json_rejects_garbage;
        ] );
      ( "render",
        [
          Alcotest.test_case "lists instruments" `Quick
            render_lists_instruments;
          Alcotest.test_case "shows percentiles" `Quick
            render_shows_percentiles;
          Alcotest.test_case "prometheus exposition" `Quick
            prometheus_rendering;
        ] );
      Prop.suite "properties"
        [
          prop_snapshot_order_independent;
          prop_snapshot_matches_model;
          prop_counter_handles;
          prop_event_json_round_trip;
        ];
    ]
