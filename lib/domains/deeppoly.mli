(** DeepPoly-style polyhedral abstract interpreter.

    Every neuron carries one symbolic lower and one symbolic upper
    linear bound over the previous layer; concrete bounds are obtained
    by back-substituting these expressions down to the input box (Singh
    et al. POPL 2019).  Split assumptions fix ReLU phases exactly.

    This is the bound engine behind the LP analyzer: the triangle
    relaxation needs tight pre-activation intervals for every ambiguous
    ReLU. *)

type analysis

type result = Feasible of analysis | Infeasible

type prefix
(** The layers of an analysis a later run can resume from, with the
    network, box and splits they were computed for. *)

val analyze : ?reuse:prefix -> Ivan_nn.Network.t -> box:Ivan_spec.Box.t -> splits:Splits.t -> result
(** [reuse] is a donor, typically the parent node's prefix in a BaB
    tree.  When it is of the same network and the same box (both
    compared physically), the run resumes from the first layer on which
    the donor's splits and [splits] disagree, at the latest from the
    first layer the donor lacks: every layer below is the donor's,
    shared by reference, and at that layer each neuron whose split phase
    did not change keeps the donor's rows and bounds.  The other neurons
    and layers are computed as from scratch — the same arithmetic in the
    same order — so the result is bit-identical to
    [analyze net ~box ~splits] whatever the donor.  Any other donor is
    ignored.
    @raise Invalid_argument on box/network dimension mismatch. *)

val prefix : analysis -> prefix
(** Every layer of the analysis. *)

val truncate : layers:int -> prefix -> prefix
(** The first [layers] layers only, sharing them: all a run that
    differs from the donor below layer [layers] can use. *)

val bounds : analysis -> Bounds.t

val objective_lo : analysis -> c:Ivan_tensor.Vec.t -> offset:float -> float
(** The lower end of {!objective_itv}, bit for bit, without
    back-substituting the upper bound. *)

val objective_itv : analysis -> c:Ivan_tensor.Vec.t -> offset:float -> Itv.t
(** Bound on [c . Y + offset] obtained by back-substituting the
    objective through the whole network — tighter than combining
    per-output interval bounds. *)
