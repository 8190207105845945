module Latency = struct
  type t = Zero | Uniform of { lo : float; hi : float }

  let sample t rng =
    match t with
    | Zero -> 0.0
    | Uniform { lo; hi } -> lo +. Basalt_prng.Rng.float rng (hi -. lo)

  let pp ppf = function
    | Zero -> Format.fprintf ppf "zero"
    | Uniform { lo; hi } -> Format.fprintf ppf "uniform(%g,%g)" lo hi
end

module Loss = struct
  type t =
    | None
    | Bernoulli of float
    | Gilbert_elliott of {
        p_gb : float;
        p_bg : float;
        good : float;
        bad : float;
      }

  type state = { mutable bad_state : bool }

  let initial _ = { bad_state = false }

  let drops t state rng =
    match t with
    | None -> false
    | Bernoulli p -> Basalt_prng.Rng.bernoulli rng ~p
    | Gilbert_elliott { p_gb; p_bg; good; bad } ->
        (* Advance the two-state Markov chain, then drop with the loss
           probability of the state the message observes. *)
        (if state.bad_state then begin
           if Basalt_prng.Rng.bernoulli rng ~p:p_bg then
             state.bad_state <- false
         end
         else if Basalt_prng.Rng.bernoulli rng ~p:p_gb then
           state.bad_state <- true);
        let p = if state.bad_state then bad else good in
        Basalt_prng.Rng.bernoulli rng ~p

  let mean_loss = function
    | None -> 0.0
    | Bernoulli p -> p
    | Gilbert_elliott { p_gb; p_bg; good; bad } ->
        (* Stationary distribution of the chain: pi_bad = p_gb/(p_gb+p_bg). *)
        let denom = p_gb +. p_bg in
        if denom <= 0.0 then good
        else
          let pi_bad = p_gb /. denom in
          (pi_bad *. bad) +. ((1.0 -. pi_bad) *. good)

  let pp ppf = function
    | None -> Format.fprintf ppf "none"
    | Bernoulli p -> Format.fprintf ppf "bernoulli(%g)" p
    | Gilbert_elliott { p_gb; p_bg; good; bad } ->
        Format.fprintf ppf "gilbert-elliott(%g,%g;%g,%g)" p_gb p_bg good bad
end
