(* Sampling-based consensus fed by a secure RPS — the paper's target use
   case (§1, §5): Avalanche-style metastable consensus draws its query
   committees from the peer sampling service, so committee quality (and
   therefore safety and liveness) is only as good as the sampler.

   Run with:  dune exec examples/consensus_sampling.exe

   All correct nodes run Snowball over a binary decision with a 70% Red
   initial majority; Byzantine nodes (15%) vote against every querier's
   preference and flood the RPS.  We compare three committee sources:
   an idealised full-knowledge uniform sampler, Basalt, and the
   classical non-tolerant RPS. *)

module Network = Basalt_avalanche.Network
module Scenario = Basalt_sim.Scenario

let run name sampling = (name, Network.run sampling)

let () =
  print_endline
    "Snowball consensus (k=10, alpha=7, beta=12) over different peer \
     samplers\n(n=300, f=15%, F=10, initial majority 70% Red)\n";
  let results =
    [
      run "full-knowledge" Network.Full_knowledge;
      run "basalt"
        (Network.Service (Scenario.Basalt (Basalt_core.Config.make ~v:40 ~k:10 ())));
      run "classic"
        (Network.Service (Scenario.Classic (Basalt_sps.Classic.config ~l:40 ())));
    ]
  in
  Printf.printf "%-15s %-9s %-7s %-9s %-11s %-14s\n" "sampler" "decided"
    "agree" "red-share" "mean-time" "committee-byz";
  List.iter
    (fun (name, r) ->
      Printf.printf "%-15s %-9.2f %-7b %-9.2f %-11.1f %-14.3f\n" name
        r.Network.decided_fraction r.Network.agreement
        r.Network.decided_red_fraction r.Network.mean_decision_time
        r.Network.committee_byz)
    results;
  print_newline ();
  print_endline
    "committee-byz is the mean Byzantine share of query committees: the\n\
     closer it stays to the true fraction (0.15), the less the adversary\n\
     can slow or derail the metastable decision.  Basalt tracks the\n\
     full-knowledge ideal; the classical RPS lets the attacker inflate\n\
     its committee presence."
