(** Zonotope abstract interpreter (DeepZ-style).

    Every neuron's value is over-approximated by an affine form
    [c + sum_k g_k eps_k] with noise symbols [eps_k] ranging over
    [-1, 1].  The first [Box.dim] noise symbols parameterize the input
    box; each ambiguous ReLU adds one fresh symbol (the minimal-area
    parallelogram transformer of Singh et al. 2018).

    Besides bounds, the analysis exposes the coefficient that each
    ambiguous ReLU's noise symbol contributes to the output objective —
    the "indirect effect" branching score of Henriksen & Lomuscio 2021
    used as the default heuristic H. *)

type prefix
(** The part of an analysis a later run can resume from: the network,
    box and splits it was computed for, the pre-activation affine forms
    and bounds of every layer but the output layer, and the noise terms
    of their ambiguous ReLUs.  It holds no output forms, so it is what a
    BaB node parks for its children. *)

type analysis = {
  bounds : Bounds.t;
  output_center : Ivan_tensor.Vec.t;
  output_gen : float array array;  (** per output neuron, per noise term *)
  relu_terms : int Ivan_nn.Relu_id.Map.t;  (** ambiguous ReLU -> its term *)
  nterms : int;
  input_box : Ivan_spec.Box.t;
  prefix : prefix;
}

type result = Feasible of analysis | Infeasible

val analyze :
  ?reuse:prefix -> ?resumable:bool -> Ivan_nn.Network.t -> box:Ivan_spec.Box.t -> splits:Splits.t -> result
(** [reuse] is a donor, typically the parent node's prefix in a BaB
    tree.  When it is of the same network and the same box (both
    compared physically), the run starts at the first layer on which the
    donor's splits and [splits] disagree (at the latest, the last layer
    whose forms the donor keeps): the layers below are the donor's,
    shared by reference, and that layer starts from the donor's
    pre-activation forms, which depend only on the layers below.  The
    rest is computed as from scratch — the same arithmetic in the same
    order — so the result is bit-identical to [analyze net ~box ~splits]
    whatever the donor.  Any other donor is ignored.

    [resumable] (default false) keeps every layer's forms in the
    analysis's [prefix], so that later runs can resume from it.  Without
    it the prefix resumes nothing and the run holds the forms of only
    the layer in flight — the right choice for an analysis no later run
    shares a box with.
    @raise Invalid_argument on box/network dimension mismatch. *)

val truncate : layers:int -> prefix -> prefix
(** The forms and bounds of the first [layers] layers only, sharing
    them: all a run that differs from the donor below layer [layers]
    can use. *)

val objective_itv : analysis -> c:Ivan_tensor.Vec.t -> offset:float -> Itv.t
(** Zonotope bound on [c . Y + offset]; at least as tight as the
    interval bound from [bounds]. *)

val objective_coeffs : analysis -> c:Ivan_tensor.Vec.t -> float array
(** Noise-term coefficients of the objective [c . Y]; index [t] is the
    coefficient of [eps_t].  Compute once and reuse when scoring many
    ReLUs, or when both bounding and looking for a counterexample. *)

val objective_itv_from_coeffs : analysis -> float array -> c:Ivan_tensor.Vec.t -> offset:float -> Itv.t
(** Same as {!objective_itv} given precomputed {!objective_coeffs} of
    the same [c]. *)

val relu_score : analysis -> c:Ivan_tensor.Vec.t -> Ivan_nn.Relu_id.t -> float
(** Magnitude of the ReLU's noise-term coefficient in the objective;
    [0.] for ReLUs that did not introduce a term. *)

val relu_score_from_coeffs : analysis -> float array -> Ivan_nn.Relu_id.t -> float
(** Same as {!relu_score} given precomputed {!objective_coeffs}. *)

val minimizing_input : analysis -> c:Ivan_tensor.Vec.t -> Ivan_tensor.Vec.t
(** The corner of the input box that minimizes the input-symbol part of
    the objective — the counterexample candidate. *)

val minimizing_input_from_coeffs : analysis -> float array -> Ivan_tensor.Vec.t
(** Same as {!minimizing_input} given precomputed {!objective_coeffs}. *)
