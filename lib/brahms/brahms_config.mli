(** Brahms algorithm parameters (paper §2.2 and §4.3).

    - [l]: size of both the gossip view 𝒱 and the sampler vector 𝒮 (the
      evaluation sets [l = v], Basalt's view size);
    - [k], [rho]: multi-shot extension — every [k/rho] time units, [k]
      samplers are emitted and reset — matching Basalt's parameters so
      the two are comparable.

    Everything else is fixed at the §4.3 evaluation's values: the view
    is rebuilt from pushed ids, pulled ids and sampler outputs in equal
    thirds (α = β = γ = 1/3), each round sends one [PUSH-ID] and one
    [PULL] every time unit (τ = 1), the blocking mechanism is
    deactivated, the samplers rank with {!Basalt_hashing.Rank.Cheap}
    and never hold the node's own id. *)

type t = private { l : int; rho : float; k : int }

val make : ?l:int -> ?rho:float -> ?k:int -> unit -> t
(** [make ()] is the evaluation's configuration: [l = 160], [rho = 1],
    [k = l/2].
    @raise Invalid_argument if [l <= 0], [k] is not in [\[1, l\]], or
    [rho] is not positive. *)

val default : t
(** [default] is [make ()]. *)

val refresh_interval : t -> float
(** [refresh_interval c] is [k / rho]. *)
