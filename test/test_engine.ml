(* Tests for basalt.engine: event queue, link models, DES engine. *)

open Basalt_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- Event_queue --- *)

(* [pop] and [peek_time] in option form, over [top_time] and [take]. *)
let pop q =
  if Event_queue.is_empty q then None
  else
    let time = Event_queue.top_time q in
    Some (time, Event_queue.take q)

let peek_time q =
  if Event_queue.is_empty q then None else Some (Event_queue.top_time q)

let queue_order () =
  let q = Event_queue.create ~filler:"" in
  Event_queue.push q ~time:3.0 "c";
  Event_queue.push q ~time:1.0 "a";
  Event_queue.push q ~time:2.0 "b";
  Alcotest.(check (option (pair (float 0.0) string)))
    "first" (Some (1.0, "a")) (pop q);
  Alcotest.(check (option (pair (float 0.0) string)))
    "second" (Some (2.0, "b")) (pop q);
  Alcotest.(check (option (pair (float 0.0) string)))
    "third" (Some (3.0, "c")) (pop q);
  check_bool "drained" true (pop q = None)

let queue_fifo_ties () =
  let q = Event_queue.create ~filler:"" in
  List.iter (fun s -> Event_queue.push q ~time:1.0 s) [ "x"; "y"; "z" ];
  let order =
    List.init 3 (fun _ ->
        match pop q with Some (_, s) -> s | None -> "?")
  in
  Alcotest.(check (list string)) "insertion order on ties" [ "x"; "y"; "z" ] order

let queue_size () =
  let q = Event_queue.create ~filler:0 in
  check_bool "is_empty" true (Event_queue.is_empty q);
  Event_queue.push q ~time:1.0 0;
  Event_queue.push q ~time:2.0 1;
  check_bool "two pending" false (Event_queue.is_empty q);
  ignore (pop q);
  check_bool "one pending" false (Event_queue.is_empty q);
  ignore (pop q);
  check_bool "drained" true (Event_queue.is_empty q)

let queue_peek () =
  let q = Event_queue.create ~filler:() in
  check_bool "peek empty" true (peek_time q = None);
  Alcotest.check_raises "top_time on empty"
    (Invalid_argument "Event_queue.top_time: empty queue") (fun () ->
      ignore (Event_queue.top_time q));
  Alcotest.check_raises "take on empty"
    (Invalid_argument "Event_queue.take: empty queue") (fun () ->
      ignore (Event_queue.take q));
  Event_queue.push q ~time:5.0 ();
  Event_queue.push q ~time:2.0 ();
  Alcotest.(check (option (float 0.0))) "peek min" (Some 2.0)
    (peek_time q);
  ignore (pop q);
  check_bool "peek does not remove" false (Event_queue.is_empty q)

let queue_interleaved () =
  let q = Event_queue.create ~filler:0 in
  for i = 0 to 99 do
    Event_queue.push q ~time:(float_of_int (99 - i)) (99 - i)
  done;
  let prev = ref (-1.0) in
  let rec drain () =
    match pop q with
    | None -> ()
    | Some (t, v) ->
        check_bool "non-decreasing" true (t >= !prev);
        check_int "payload matches time" v (int_of_float t);
        prev := t;
        drain ()
  in
  drain ()

(* A taken value is unreachable from the queue: the slot its entry (or
   the last entry, moved into its place) leaves holds the filler, even
   once the queue is empty. *)
let queue_releases_taken () =
  let n = 100 in
  let q = Event_queue.create ~filler:(ref (-1)) in
  let weak = Weak.create n in
  (* Times are a permutation of 0..n-1, so the heap reorders. *)
  for i = 0 to n - 1 do
    let v = ref i in
    Weak.set weak i (Some v);
    Event_queue.push q ~time:(float_of_int (i * 37 mod n)) v
  done;
  let take k =
    for _ = 1 to k do
      ignore (Event_queue.take q)
    done
  in
  let retained () =
    Gc.full_major ();
    List.length (List.filter (Weak.check weak) (List.init n Fun.id))
  in
  take (n / 2);
  check_int "only pending values retained" (n / 2) (retained ());
  take (n / 2);
  check_int "none retained once empty" 0 (retained ())

module Gen = QCheck2.Gen
module Test = QCheck2.Test
module Gens = Prop.Gens
module Print = QCheck2.Print

let prop_queue_sorted =
  Test.make ~name:"pops are sorted by time" ~count:200
    ~print:(Print.list Print.float)
    (Gen.list_size (Gen.int_bound 60) (Gen.float_range 0.0 1000.0))
    (fun times ->
      let q = Event_queue.create ~filler:() in
      List.iter (fun t -> Event_queue.push q ~time:t ()) times;
      let rec drain prev =
        match pop q with
        | None -> true
        | Some (t, ()) -> t >= prev && drain t
      in
      drain neg_infinity)

(* Model-based test: interleave pushes and pops, comparing against a
   sorted-list reference implementation (stable on ties). *)
let prop_queue_model =
  Test.make ~name:"queue matches sorted-list reference" ~count:300
    ~print:(Print.list (Print.pair Print.bool Print.int))
    (Gen.list_size (Gen.int_bound 60) (Gen.pair Gen.bool (Gen.int_bound 100)))
    (fun ops ->
      let q = Event_queue.create ~filler:0 in
      (* reference: list of (time, seq, value), kept sorted *)
      let reference = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun (is_push, t) ->
          if is_push then begin
            let time = float_of_int t in
            Event_queue.push q ~time !seq;
            reference :=
              List.merge
                (fun (t1, s1, _) (t2, s2, _) ->
                  if t1 <> t2 then Float.compare t1 t2 else Int.compare s1 s2)
                !reference
                [ (time, !seq, !seq) ];
            incr seq
          end
          else begin
            match (pop q, !reference) with
            | None, [] -> ()
            | Some (t, v), (rt, _, rv) :: rest ->
                if t <> rt || v <> rv then ok := false;
                reference := rest
            | Some _, [] | None, _ :: _ -> ok := false
          end)
        ops;
      (* drain both *)
      let rec drain () =
        match (pop q, !reference) with
        | None, [] -> ()
        | Some (t, v), (rt, _, rv) :: rest ->
            if t <> rt || v <> rv then ok := false;
            reference := rest;
            drain ()
        | Some _, [] | None, _ :: _ -> ok := false
      in
      drain ();
      !ok)

(* The same model check with times drawn from a handful of values, so
   most entries tie, and up to 300 entries live at once, so the arrays
   double five times; [top_time] is checked before every take. *)
let prop_queue_model_ties_growth =
  Test.make ~name:"queue matches sorted-list model (ties, growth)"
    ~count:200
    ~print:(Print.list (Print.pair Print.bool Print.int))
    (Gen.list_size (Gen.int_bound 400)
       (Gen.frequency
          [
            (3, Gen.map (fun t -> (true, t)) (Gen.int_bound 4));
            (1, Gen.return (false, 0));
          ]))
    (fun ops ->
      let q = Event_queue.create ~filler:0 in
      (* The model: (time, seq) pairs in delivery order. *)
      let model = ref [] in
      let seq = ref 0 in
      let take_one () =
        match !model with
        | [] -> Event_queue.is_empty q
        | (time, s) :: rest ->
            model := rest;
            Event_queue.top_time q = time
            && Event_queue.take q = s
      in
      let ok =
        List.for_all
          (fun (is_push, t) ->
            if is_push then begin
              let time = float_of_int t in
              Event_queue.push q ~time !seq;
              model :=
                List.merge
                  (fun (t1, s1) (t2, s2) ->
                    if t1 <> t2 then Float.compare t1 t2 else Int.compare s1 s2)
                  !model
                  [ (time, !seq) ];
              incr seq;
              true
            end
            else take_one ())
          ops
      in
      let rec drain () = Event_queue.is_empty q || (take_one () && drain ()) in
      ok && drain () && !model = [])

(* --- Link models --- *)

let latency_models () =
  let rng = Basalt_prng.Rng.create ~seed:1 in
  check_float "zero" 0.0 (Link.Latency.sample Link.Latency.Zero rng);
  for _ = 1 to 100 do
    let d = Link.Latency.sample (Link.Latency.Uniform { lo = 0.1; hi = 0.2 }) rng in
    check_bool "uniform in range" true (d >= 0.1 && d <= 0.2)
  done

let loss_models () =
  let rng = Basalt_prng.Rng.create ~seed:2 in
  let none_st = Link.Loss.initial Link.Loss.None in
  let all = Link.Loss.Bernoulli 1.0 in
  let all_st = Link.Loss.initial all in
  for _ = 1 to 50 do
    check_bool "none never drops" false (Link.Loss.drops Link.Loss.None none_st rng);
    check_bool "p=1 always drops" true (Link.Loss.drops all all_st rng)
  done

let loss_gilbert_elliott () =
  let rng = Basalt_prng.Rng.create ~seed:3 in
  (* Degenerate chains pin the behaviour exactly: a chain stuck in the
     good state with good=0 never drops; stuck in bad with bad=1 always
     drops once it transitions (p_gb=1 moves there on the first step). *)
  let stuck_good =
    Link.Loss.Gilbert_elliott { p_gb = 0.0; p_bg = 0.0; good = 0.0; bad = 1.0 }
  in
  let st = Link.Loss.initial stuck_good in
  for _ = 1 to 50 do
    check_bool "stuck-good never drops" false
      (Link.Loss.drops stuck_good st rng)
  done;
  let stuck_bad =
    Link.Loss.Gilbert_elliott { p_gb = 1.0; p_bg = 0.0; good = 0.0; bad = 1.0 }
  in
  let st = Link.Loss.initial stuck_bad in
  for _ = 1 to 50 do
    check_bool "stuck-bad always drops" true
      (Link.Loss.drops stuck_bad st rng)
  done;
  (* Stationary loss of a balanced chain: pi_bad = p_gb/(p_gb+p_bg). *)
  let ge =
    Link.Loss.Gilbert_elliott
      { p_gb = 0.1; p_bg = 0.3; good = 0.0; bad = 0.8 }
  in
  check_float "mean loss" (0.1 /. 0.4 *. 0.8) (Link.Loss.mean_loss ge);
  let st = Link.Loss.initial ge in
  let n = 20_000 in
  let drops = ref 0 in
  for _ = 1 to n do
    if Link.Loss.drops ge st rng then incr drops
  done;
  let observed = float_of_int !drops /. float_of_int n in
  check_bool "empirical loss near stationary" true
    (Float.abs (observed -. Link.Loss.mean_loss ge) < 0.03)

(* --- Engine --- *)

let fresh_engine ?latency ?loss n : string Engine.t =
  let rng = Basalt_prng.Rng.create ~seed:7 in
  Engine.create ?latency ?loss ~rng ~n ()

let engine_delivery () =
  let e = fresh_engine 2 in
  let received = ref [] in
  Engine.register e 1 (fun ~from msg -> received := (from, msg) :: !received);
  Engine.send e ~src:0 ~dst:1 "hello";
  Engine.run_until e 1.0;
  Alcotest.(check (list (pair int string)))
    "delivered" [ (0, "hello") ] !received

let engine_unregistered_ok () =
  (* A message to a node with no handler is dropped on arrival: it is
     NOT counted as delivered (it never reached a handler) but shows up
     in the distinct [ignored] statistic. *)
  let e = fresh_engine 2 in
  Engine.send e ~src:0 ~dst:1 "void";
  Engine.run_until e 1.0;
  let s = Engine.stats e in
  check_int "not delivered" 0 s.Engine.delivered;
  check_int "counted ignored" 1 s.Engine.ignored;
  check_int "not dropped (it did arrive)" 0 s.Engine.dropped

let engine_out_of_range_register () =
  let e = fresh_engine 2 in
  Alcotest.check_raises "register out of range"
    (Invalid_argument "Engine.register: node out of range") (fun () ->
      Engine.register e 5 (fun ~from:_ _ -> ()))

let engine_timer_order () =
  let e = fresh_engine 1 in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun () -> log := "b" :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log);
  Engine.run_until e 3.0;
  Alcotest.(check (list string)) "timer order" [ "b"; "a" ] !log

let engine_negative_delay () =
  let e = fresh_engine 1 in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-1.0) ignore)

let engine_every_count () =
  let e = fresh_engine 1 in
  let count = ref 0 in
  Engine.every e ~interval:1.0 (fun () -> incr count);
  Engine.run_until e 10.5;
  check_int "fires once per interval" 10 !count;
  (* Events beyond the horizon stay queued: advancing further fires more. *)
  Engine.run_until e 12.5;
  check_int "resumes across horizons" 12 !count

(* A periodic timer re-queues one value and the queue stores times
   unboxed: 10,000 fires of a no-op [every] allocate a few words each
   (the boxed float of each re-queue time and of each [top_time]), not a
   fresh timer, heap entry and option per fire. *)
let every_fire_words_budget = 60_000

let engine_every_allocation () =
  let e = fresh_engine 1 in
  let count = ref 0 in
  Engine.every e ~interval:1.0 (fun () -> incr count);
  Engine.run_until e 10.0;
  let before = Gc.minor_words () in
  Engine.run_until e 10_010.0;
  let words = Gc.minor_words () -. before in
  check_int "fires" 10_010 !count;
  if words > float_of_int every_fire_words_budget then
    Alcotest.failf "%.0f minor words for 10,000 fires, over the budget of %d"
      words every_fire_words_budget

let engine_every_phase () =
  let e = fresh_engine 1 in
  let first = ref Float.nan in
  Engine.every e ~phase:0.25 ~interval:1.0 (fun () ->
      if Float.is_nan !first then first := Engine.now e);
  Engine.run_until e 2.0;
  check_float "first firing at phase" 0.25 !first

let engine_every_invalid () =
  let e = fresh_engine 1 in
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Engine.every: interval must be > 0") (fun () ->
      Engine.every e ~interval:0.0 ignore)

let engine_clock_advances () =
  let e = fresh_engine 1 in
  check_float "starts at 0" 0.0 (Engine.now e);
  Engine.run_until e 5.0;
  check_float "reaches horizon" 5.0 (Engine.now e)

let engine_message_before_next_round () =
  (* A message sent during a round-t timer must be delivered before a
     round t+1 timer (the zero-latency epsilon guarantee). *)
  let e = fresh_engine 2 in
  let log = ref [] in
  Engine.register e 1 (fun ~from:_ _ -> log := "deliver" :: !log);
  Engine.every e ~phase:1.0 ~interval:1.0 (fun () ->
      log := "round" :: !log;
      Engine.send e ~src:0 ~dst:1 "m");
  Engine.run_until e 2.5;
  Alcotest.(check (list string))
    "delivery interleaves rounds"
    [ "deliver"; "round"; "deliver"; "round" ]
    !log

let engine_step () =
  let e = fresh_engine 1 in
  let events () = (Engine.stats e).Engine.events in
  Engine.run_until e 1.0;
  check_int "no events" 0 (events ());
  Engine.schedule e ~delay:1.0 ignore;
  Engine.run_until e 2.0;
  check_int "one event" 1 (events ());
  Engine.run_until e 3.0;
  check_int "drained" 1 (events ())

let engine_stats () =
  let e = fresh_engine 2 in
  Engine.register e 1 (fun ~from:_ _ -> ());
  Engine.send e ~src:0 ~dst:1 "x";
  Engine.send e ~src:0 ~dst:1 "y";
  Engine.schedule e ~delay:0.5 ignore;
  Engine.run_until e 1.0;
  let s = Engine.stats e in
  check_int "sent" 2 s.Engine.sent;
  check_int "delivered" 2 s.Engine.delivered;
  check_int "dropped" 0 s.Engine.dropped;
  check_int "ignored" 0 s.Engine.ignored;
  check_int "events = deliveries + timers" 3 s.Engine.events

let engine_loss () =
  let e = fresh_engine ~loss:(Link.Loss.Bernoulli 1.0) 2 in
  Engine.register e 1 (fun ~from:_ _ -> Alcotest.fail "should be dropped");
  for _ = 1 to 10 do
    Engine.send e ~src:0 ~dst:1 "x"
  done;
  Engine.run_until e 1.0;
  let s = Engine.stats e in
  check_int "all dropped" 10 s.Engine.dropped;
  check_int "none delivered" 0 s.Engine.delivered

let engine_latency () =
  let e =
    fresh_engine ~latency:(Link.Latency.Uniform { lo = 2.0; hi = 2.05 }) 2
  in
  let arrival = ref Float.nan in
  Engine.register e 1 (fun ~from:_ _ -> arrival := Engine.now e);
  Engine.send e ~src:0 ~dst:1 "x";
  Engine.run_until e 1.0;
  check_bool "not yet delivered" true (Float.is_nan !arrival);
  Engine.run_until e 3.0;
  check_bool "delivered after latency" true (!arrival >= 2.0 && !arrival < 2.1)

let engine_n () =
  let e = fresh_engine 5 in
  Engine.register e 4 (fun ~from:_ _ -> ());
  Alcotest.check_raises "n slots, no more"
    (Invalid_argument "Engine.register: node out of range") (fun () ->
      Engine.register e 5 (fun ~from:_ _ -> ()))

(* --- fault plans --- *)

let fresh_faulty ?latency ?loss ~fault n : string Engine.t =
  let rng = Basalt_prng.Rng.create ~seed:7 in
  Engine.create ?latency ?loss ~fault ~rng ~n ()

let fault_none_is_legacy () =
  (* An empty plan must be indistinguishable from no plan at all, down to
     PRNG consumption: same seed, same jittered delivery times. *)
  let run fault =
    let rng = Basalt_prng.Rng.create ~seed:11 in
    let e : string Engine.t =
      Engine.create
        ~latency:(Link.Latency.Uniform { lo = 0.0; hi = 0.5 })
        ?fault ~rng ~n:2 ()
    in
    let times = ref [] in
    Engine.register e 1 (fun ~from:_ _ -> times := Engine.now e :: !times);
    for _ = 1 to 20 do
      Engine.send e ~src:0 ~dst:1 "x"
    done;
    Engine.run_until e 5.0;
    !times
  in
  Alcotest.(check (list (float 0.0)))
    "identical delivery times" (run None)
    (run (Some (Fault.make ())))

let fault_partition () =
  let fault =
    Fault.make
      ~partitions:
        [ Fault.partition ~from_time:1.0 ~until_time:2.0 (fun i -> i = 0) ]
      ()
  in
  let e = fresh_faulty ~fault 2 in
  let got = ref 0 in
  Engine.register e 1 (fun ~from:_ _ -> incr got);
  (* Before, during and after the cut. *)
  Engine.schedule e ~delay:0.5 (fun () -> Engine.send e ~src:0 ~dst:1 "a");
  Engine.schedule e ~delay:1.5 (fun () -> Engine.send e ~src:0 ~dst:1 "b");
  Engine.schedule e ~delay:2.5 (fun () -> Engine.send e ~src:0 ~dst:1 "c");
  Engine.run_until e 5.0;
  let s = Engine.stats e in
  check_int "two crossed outside the window" 2 !got;
  check_int "one partition drop" 1 s.Engine.partition_drops;
  check_int "dropped includes the partition drop" 1 s.Engine.dropped

let fault_partition_same_side () =
  (* Nodes on the same side of the cut keep talking during the window. *)
  let fault =
    Fault.make
      ~partitions:
        [ Fault.partition ~from_time:0.0 ~until_time:10.0 (fun i -> i < 2) ]
      ()
  in
  let e = fresh_faulty ~fault 4 in
  let got = ref 0 in
  Engine.register e 1 (fun ~from:_ _ -> incr got);
  Engine.register e 3 (fun ~from:_ _ -> incr got);
  Engine.schedule e ~delay:1.0 (fun () ->
      Engine.send e ~src:0 ~dst:1 "same side";
      Engine.send e ~src:2 ~dst:3 "same side";
      Engine.send e ~src:0 ~dst:3 "across");
  Engine.run_until e 5.0;
  check_int "same-side delivered" 2 !got;
  check_int "cross-cut dropped" 1 (Engine.stats e).Engine.partition_drops

let fault_outage () =
  let fault =
    Fault.make ~outages:[ Fault.outage ~node:1 ~from_time:1.0 ~until_time:2.0 ] ()
  in
  let e = fresh_faulty ~fault 3 in
  let got = ref 0 in
  Engine.register e 1 (fun ~from:_ _ -> incr got);
  Engine.register e 2 (fun ~from:_ _ -> incr got);
  Engine.schedule e ~delay:1.5 (fun () ->
      Engine.send e ~src:0 ~dst:1 "to the downed node";
      Engine.send e ~src:1 ~dst:2 "from the downed node";
      Engine.send e ~src:0 ~dst:2 "bystanders");
  Engine.schedule e ~delay:2.5 (fun () ->
      Engine.send e ~src:0 ~dst:1 "after restart");
  Engine.run_until e 5.0;
  let s = Engine.stats e in
  check_int "bystander + post-restart delivered" 2 !got;
  check_int "both directions silenced" 2 s.Engine.partition_drops

let fault_duplication () =
  let fault = Fault.make ~base:(Fault.link ~dup:1.0 ()) () in
  let e = fresh_faulty ~fault 2 in
  let got = ref 0 in
  Engine.register e 1 (fun ~from:_ _ -> incr got);
  for _ = 1 to 10 do
    Engine.send e ~src:0 ~dst:1 "x"
  done;
  Engine.run_until e 5.0;
  let s = Engine.stats e in
  check_int "sent" 10 s.Engine.sent;
  check_int "every message duplicated" 10 s.Engine.dup;
  check_int "delivered twice each" 20 s.Engine.delivered;
  check_int "handler saw every copy" 20 !got

let fault_reorder () =
  (* With certain reordering over a window much wider than the base
     latency, consecutive sends overtake each other. *)
  let fault =
    Fault.make ~base:(Fault.link ~reorder:1.0 ~reorder_window:10.0 ()) ()
  in
  let e = fresh_faulty ~fault 2 in
  let order = ref [] in
  Engine.register e 1 (fun ~from:_ msg -> order := msg :: !order);
  for i = 1 to 20 do
    Engine.send e ~src:0 ~dst:1 (string_of_int i)
  done;
  Engine.run_until e 20.0;
  let s = Engine.stats e in
  check_int "every copy delayed" 20 s.Engine.reordered;
  check_int "all delivered" 20 s.Engine.delivered;
  check_bool "at least one overtake" true
    (List.rev !order <> List.init 20 (fun i -> string_of_int (i + 1)))

(* Two engines on one registry, under a plan that loses, duplicates,
   reorders and partitions: each engine's [stats] are its own counts,
   with [events = timer_fires + delivered + ignored], and together they
   make up the registry's [engine.*] totals. *)
let fault_stats_on_shared_registry () =
  let obs = Basalt_obs.Obs.create () in
  let fault =
    Fault.make
      ~base:
        (Fault.link ~loss:(Link.Loss.Bernoulli 0.1) ~dup:0.3 ~reorder:0.5
           ~reorder_window:1.0 ())
      ~partitions:
        [ Fault.partition ~from_time:2.0 ~until_time:4.0 (fun i -> i = 0) ]
      ()
  in
  let start seed =
    let e : string Engine.t =
      Engine.create ~fault ~obs ~rng:(Basalt_prng.Rng.create ~seed) ~n:4 ()
    in
    (* Node 0 has no handler, so traffic to it is ignored. *)
    for i = 1 to 3 do
      Engine.register e i (fun ~from:_ _ -> ())
    done;
    let timers = ref 0 in
    Engine.every e ~interval:0.5 (fun () ->
        incr timers;
        for src = 0 to 3 do
          Engine.send e ~src ~dst:((src + 1) mod 4) "x"
        done);
    (e, timers)
  in
  let engines = [ start 1; start 2 ] in
  List.iter (fun (e, _) -> Engine.run_until e 8.0) engines;
  List.iter
    (fun (e, timers) ->
      let s = Engine.stats e in
      check_int "events = timer fires + delivered + ignored" s.Engine.events
        (!timers + s.Engine.delivered + s.Engine.ignored))
    engines;
  let snapshot = Basalt_obs.Obs.snapshot obs in
  let total name = int_of_float (List.assoc ("engine." ^ name) snapshot) in
  let sum f =
    List.fold_left (fun acc (e, _) -> acc + f (Engine.stats e)) 0 engines
  in
  List.iter
    (fun (name, f) ->
      check_bool (name ^ " happened") true (total name > 0);
      check_int (name ^ ": summed stats equal the registry total") (total name)
        (sum f))
    [
      ("sent", fun s -> s.Engine.sent);
      ("delivered", fun s -> s.Engine.delivered);
      ("dropped", fun s -> s.Engine.dropped);
      ("ignored", fun s -> s.Engine.ignored);
      ("dup", fun s -> s.Engine.dup);
      ("reordered", fun s -> s.Engine.reordered);
      ("partition_drops", fun s -> s.Engine.partition_drops);
    ];
  check_int "summed events equal timer fires + delivered + ignored"
    (total "timer_fires" + total "delivered" + total "ignored")
    (sum (fun s -> s.Engine.events))

let fault_link_independence () =
  (* The fault schedule of link (0,1) is a pure function of the engine
     seed: injecting extra traffic on an unrelated link must not change
     which (0,1) messages drop or when the survivors arrive. *)
  let run ~extra_traffic =
    let fault =
      Fault.make ~base:(Fault.link ~loss:(Link.Loss.Bernoulli 0.4) ()) ()
    in
    let rng = Basalt_prng.Rng.create ~seed:42 in
    let e : string Engine.t =
      Engine.create
        ~latency:(Link.Latency.Uniform { lo = 0.0; hi = 0.3 })
        ~fault ~rng ~n:4 ()
    in
    let times = ref [] in
    Engine.register e 1 (fun ~from:_ _ -> times := Engine.now e :: !times);
    Engine.register e 3 (fun ~from:_ _ -> ());
    for _ = 1 to 30 do
      Engine.send e ~src:0 ~dst:1 "probe";
      if extra_traffic then Engine.send e ~src:2 ~dst:3 "noise"
    done;
    Engine.run_until e 5.0;
    !times
  in
  Alcotest.(check (list (float 0.0)))
    "(0,1) schedule independent of (2,3) traffic"
    (run ~extra_traffic:false)
    (run ~extra_traffic:true)

(* A top-level Gilbert–Elliott [loss] runs one chain per directed link
   on the fault-free path too.  With p_gb = p_bg = 1 a chain flips at
   every message, and good = 0, bad = 1 make its state the outcome: a
   fresh link's first message moves it to bad and drops.  One chain
   shared by the network would have flipped back to good for the second
   link's first message and delivered it. *)
let engine_gilbert_elliott_per_link () =
  let e : string Engine.t =
    Engine.create
      ~loss:
        (Link.Loss.Gilbert_elliott
           { p_gb = 1.0; p_bg = 1.0; good = 0.0; bad = 1.0 })
      ~rng:(Basalt_prng.Rng.create ~seed:5)
      ~n:3 ()
  in
  let got = ref 0 in
  Engine.register e 1 (fun ~from:_ _ -> incr got);
  Engine.register e 2 (fun ~from:_ _ -> incr got);
  Engine.send e ~src:0 ~dst:1 "a";
  Engine.send e ~src:0 ~dst:2 "b";
  Engine.run_until e 1.0;
  check_int "nothing delivered" 0 !got;
  check_int "both dropped" 2 (Engine.stats e).Engine.dropped

let fault_gilbert_elliott_burstiness () =
  (* A bursty channel with the same stationary loss as an independent
     one produces longer drop runs; check that bursts actually appear
     (a maximal run well above the i.i.d. expectation). *)
  let fault =
    Fault.make
      ~base:
        (Fault.link
           ~loss:
             (Link.Loss.Gilbert_elliott
                { p_gb = 0.05; p_bg = 0.2; good = 0.0; bad = 1.0 })
           ())
      ()
  in
  let e = fresh_faulty ~fault 2 in
  let outcomes = ref [] in
  Engine.register e 1 (fun ~from:_ _ -> ());
  for _ = 1 to 500 do
    let before = (Engine.stats e).Engine.dropped in
    Engine.send e ~src:0 ~dst:1 "x";
    let after = (Engine.stats e).Engine.dropped in
    outcomes := (after > before) :: !outcomes
  done;
  let longest, _ =
    List.fold_left
      (fun (best, cur) dropped ->
        if dropped then (max best (cur + 1), cur + 1) else (best, 0))
      (0, 0) (List.rev !outcomes)
  in
  check_bool "bursts of consecutive drops" true (longest >= 4)

(* --- schedule-invariant properties (DESIGN.md §9) --- *)

let print_latency = function
  | Link.Latency.Zero -> "Zero"
  | Link.Latency.Uniform { lo; hi } -> Printf.sprintf "Uniform{%g,%g}" lo hi

let print_loss = function
  | Link.Loss.None -> "None"
  | Link.Loss.Bernoulli p -> Printf.sprintf "Bernoulli %g" p
  | Link.Loss.Gilbert_elliott { p_gb; p_bg; good; bad } ->
      Printf.sprintf "GE{%g,%g;%g,%g}" p_gb p_bg good bad

let print_schedule (s : Gens.schedule) =
  Printf.sprintf "{nodes=%d; registered=%s; sends=%s; horizon=%g}" s.Gens.nodes
    (Print.list Print.bool s.Gens.registered)
    (Print.list (Print.triple Print.float Print.int Print.int) s.Gens.sends)
    s.Gens.horizon

let workload_gen =
  Gen.triple (Gens.schedule ~max_nodes:8 ~max_sends:40) Gens.latency Gens.loss

let print_workload = Print.triple print_schedule print_latency print_loss

(* Replays a generated workload: per-node handlers where [registered],
   every send submitted from a timer at its scheduled time. *)
let run_workload ?(on_event = fun _e -> ()) (sched, latency, loss) =
  let rng = Basalt_prng.Rng.create ~seed:0xC4EC4 in
  let e : unit Engine.t =
    Engine.create ~latency ~loss ~rng ~n:sched.Gens.nodes ()
  in
  List.iteri
    (fun i registered ->
      if registered then Engine.register e i (fun ~from:_ () -> on_event e))
    sched.Gens.registered;
  List.iter
    (fun (t, src, dst) ->
      Engine.schedule e ~delay:t (fun () ->
          on_event e;
          Engine.send e ~src ~dst ()))
    sched.Gens.sends;
  Engine.run_until e sched.Gens.horizon;
  e

(* Message conservation: loss is decided at send time, an arrival
   without a handler is [ignored], everything else reaches a handler. *)
let prop_engine_conservation =
  Test.make ~name:"sent = delivered + dropped + ignored" ~count:100
    ~print:print_workload workload_gen
    (fun ((sched, _, _) as w) ->
      let e = run_workload w in
      let s = Engine.stats e in
      s.Engine.sent = List.length sched.Gens.sends
      && s.Engine.sent = s.Engine.delivered + s.Engine.dropped + s.Engine.ignored)

(* Event accounting: every executed event is a timer firing or a
   message arrival (delivered or ignored); drops never consume an
   event because lost messages are never enqueued. *)
let prop_engine_event_accounting =
  Test.make ~name:"events = timers + delivered + ignored" ~count:100
    ~print:print_workload workload_gen
    (fun ((sched, _, _) as w) ->
      let e = run_workload w in
      let s = Engine.stats e in
      let timers = List.length sched.Gens.sends in
      s.Engine.events = timers + s.Engine.delivered + s.Engine.ignored)

(* The virtual clock never runs backwards across any callback, and
   [run_until h] leaves the clock exactly at [h]. *)
let prop_engine_monotone_clock =
  Test.make ~name:"clock is monotone and lands on the horizon" ~count:100
    ~print:print_workload workload_gen
    (fun ((sched, _, _) as w) ->
      let last = ref neg_infinity in
      let monotone = ref true in
      let e =
        run_workload w ~on_event:(fun e ->
            let t = Engine.now e in
            if t < !last then monotone := false;
            last := t)
      in
      !monotone && Engine.now e = sched.Gens.horizon)

let () =
  Alcotest.run "engine"
    [
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick queue_order;
          Alcotest.test_case "fifo ties" `Quick queue_fifo_ties;
          Alcotest.test_case "size" `Quick queue_size;
          Alcotest.test_case "peek" `Quick queue_peek;
          Alcotest.test_case "interleaved" `Quick queue_interleaved;
          Alcotest.test_case "releases taken values" `Quick
            queue_releases_taken;
          Prop.case ~suite:"event_queue" prop_queue_sorted;
          Prop.case ~suite:"event_queue" prop_queue_model;
          Prop.case ~suite:"event_queue" prop_queue_model_ties_growth;
        ] );
      ( "link",
        [
          Alcotest.test_case "latency models" `Quick latency_models;
          Alcotest.test_case "loss models" `Quick loss_models;
          Alcotest.test_case "gilbert-elliott" `Quick loss_gilbert_elliott;
        ] );
      ( "fault",
        [
          Alcotest.test_case "none is legacy" `Quick fault_none_is_legacy;
          Alcotest.test_case "partition" `Quick fault_partition;
          Alcotest.test_case "partition same side" `Quick
            fault_partition_same_side;
          Alcotest.test_case "outage" `Quick fault_outage;
          Alcotest.test_case "duplication" `Quick fault_duplication;
          Alcotest.test_case "reorder" `Quick fault_reorder;
          Alcotest.test_case "stats on a shared registry" `Quick
            fault_stats_on_shared_registry;
          Alcotest.test_case "link independence" `Quick
            fault_link_independence;
          Alcotest.test_case "gilbert-elliott bursts" `Quick
            fault_gilbert_elliott_burstiness;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delivery" `Quick engine_delivery;
          Alcotest.test_case "unregistered dst" `Quick engine_unregistered_ok;
          Alcotest.test_case "gilbert-elliott chain per link" `Quick
            engine_gilbert_elliott_per_link;
          Alcotest.test_case "register out of range" `Quick
            engine_out_of_range_register;
          Alcotest.test_case "timer order" `Quick engine_timer_order;
          Alcotest.test_case "negative delay" `Quick engine_negative_delay;
          Alcotest.test_case "every count" `Quick engine_every_count;
          Alcotest.test_case "every phase" `Quick engine_every_phase;
          Alcotest.test_case "every allocation" `Quick engine_every_allocation;
          Alcotest.test_case "every invalid" `Quick engine_every_invalid;
          Alcotest.test_case "clock advances" `Quick engine_clock_advances;
          Alcotest.test_case "message before next round" `Quick
            engine_message_before_next_round;
          Alcotest.test_case "step" `Quick engine_step;
          Alcotest.test_case "stats" `Quick engine_stats;
          Alcotest.test_case "loss" `Quick engine_loss;
          Alcotest.test_case "latency" `Quick engine_latency;
          Alcotest.test_case "n" `Quick engine_n;
        ] );
      Prop.suite "schedule properties"
        [
          prop_engine_conservation;
          prop_engine_event_accounting;
          prop_engine_monotone_clock;
        ];
    ]
