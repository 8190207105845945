(** Simulated substitute for the paper's live deployment (Section 5).

    The paper patched AvalancheGo to replace proof-of-stake peer sampling
    with a Basalt-derived sampler, launched ~100 adversarial nodes (≈20%
    of the live AVA network) attempting an Eclipse attack against a
    witness node, and measured, over 10 hours, the proportion of malicious
    nodes in the witness's samples under three samplers:

    - Basalt-derived: {b 17.5%},
    - full-knowledge uniform sampling: {b 18.4%},
    - ground truth (actual adversarial share): {b 18.8%}.

    We reproduce the protocol-level content of that experiment in the
    simulator: a network with the same adversarial share whose coalition
    concentrates its attack on one witness ({!Basalt_adversary.Adversary}
    [Eclipse] strategy), a Basalt sampler at the witness, and an
    idealised full-knowledge sampler drawing the same number of samples.
    See DESIGN.md ("Substitutions") for why this preserves the measured
    quantity's behavior. *)

type config = private {
  n : int;  (** Active network size (paper: ≈530 so 100 nodes are 18.8%). *)
  adversarial : int;  (** Number of attacker nodes (paper: 100). *)
  v : int;  (** Witness's Basalt view size. *)
  steps : float;  (** Duration (paper: 10 h at τ = 10 s → 3600 units). *)
}

val config : n:int -> adversarial:int -> v:int -> steps:float -> config
(** [config ~n ~adversarial ~v ~steps] is the scenario; the coalition
    pushes at force 10 and the run's seed is 42.  The paper's
    proportions are [n = 532], [adversarial = 100].
    @raise Invalid_argument if [adversarial] is outside [\[0, n)] or a
    size is non-positive. *)

type result = {
  basalt_proportion : float;
      (** Malicious share of the witness's Basalt samples. *)
  full_knowledge_proportion : float;
      (** Malicious share of an equal number of uniform samples. *)
  true_proportion : float;  (** Actual adversarial share of the network. *)
  witness_samples : int;  (** Samples the witness's service emitted. *)
  witness_isolated : bool;  (** Whether the eclipse succeeded. *)
}

val run : config -> result
(** [run c] executes the deployment scenario. *)
