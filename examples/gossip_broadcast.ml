(* Epidemic rumor dissemination over the overlay an RPS maintains — the
   motivating workload of gossip-based systems (paper §1): information
   spreads in O(log n) rounds as long as correct nodes' views contain
   enough correct peers.

   Run with:  dune exec examples/gossip_broadcast.exe

   A rumor starts at node 0 after the sampler has warmed up; each
   infected correct node forwards it to [fanout] peers drawn from its
   current view every round.  Malicious nodes absorb rumors silently
   (worst case for dissemination) while running the usual RPS-level
   flooding attack.  We compare how far and fast the rumor spreads when
   views are maintained by Basalt vs the classical non-tolerant RPS. *)

module Scenario = Basalt_sim.Scenario
module Runner = Basalt_sim.Runner
module Node_id = Basalt_proto.Node_id
module View_ops = Basalt_proto.View_ops
module Rng = Basalt_prng.Rng

let n = 400
let f = 0.2
let force = 10.0
let fanout = 3
let warmup = 40.0
let steps = 80.0

(* Simulate dissemination over frozen view snapshots: at each recorded
   measurement instant past the warm-up we have the live views; between
   instants, infected nodes forward to [fanout] random view members. *)
let dissemination protocol_name protocol =
  let scenario =
    Scenario.make ~name:"gossip" ~n ~f ~force ~protocol ~steps
      ~measure_every:1.0 ()
  in
  let q = Scenario.num_correct scenario in
  let infected = Array.make n false in
  let rng = Rng.create ~seed:99 in
  let coverage_series = ref [] in
  let observer ~time ~views =
    if time >= warmup then begin
      if not infected.(0) then infected.(0) <- true;
      (* One round of forwarding over the current views. *)
      let newly = ref [] in
      for u = 0 to q - 1 do
        if infected.(u) then begin
          let view = views u in
          for _ = 1 to fanout do
            match View_ops.random_member rng view with
            | Some peer ->
                let p = Node_id.to_int peer in
                (* Malicious nodes absorb the rumor without forwarding. *)
                if p < q && not infected.(p) then newly := p :: !newly
            | None -> ()
          done
        end
      done;
      List.iter (fun p -> infected.(p) <- true) !newly;
      let covered =
        Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0
          (Array.sub infected 0 q)
      in
      coverage_series :=
        (time, float_of_int covered /. float_of_int q) :: !coverage_series
    end
  in
  ignore (Runner.run ~observer scenario);
  (protocol_name, List.rev !coverage_series)

let () =
  Printf.printf
    "Rumor dissemination over RPS views (n=%d, f=%.0f%%, F=%g, fanout=%d)\n\n"
    n (100.0 *. f) force fanout;
  let results =
    [
      dissemination "basalt" (Scenario.Basalt (Basalt_core.Config.make ~v:24 ~k:6 ()));
      dissemination "classic" (Scenario.Classic (Basalt_sps.Classic.config ~l:24 ()));
    ]
  in
  Printf.printf "%-8s  %s\n" "round" (String.concat "  " (List.map fst results));
  let rounds =
    match results with (_, series) :: _ -> List.length series | [] -> 0
  in
  for i = 0 to rounds - 1 do
    if i mod 4 = 0 || i = rounds - 1 then begin
      let t, _ = List.nth (snd (List.hd results)) i in
      Printf.printf "t=%-6.0f" t;
      List.iter
        (fun (_, series) ->
          let _, c = List.nth series i in
          Printf.printf "  %5.1f%%" (100.0 *. c))
        results;
      print_newline ()
    end
  done;
  List.iter
    (fun (name, series) ->
      let reach_time threshold =
        match List.find_opt (fun (_, c) -> c >= threshold) series with
        | Some (t, _) -> Printf.sprintf "%.0f" (t -. warmup)
        | None -> "never"
      in
      Printf.printf
        "\n%s: rounds to reach 50%% of correct nodes: %s; 99%%: %s\n" name
        (reach_time 0.5) (reach_time 0.99))
    results
