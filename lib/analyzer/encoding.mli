(** LP / MILP encodings of verification subproblems.

    Three ways to turn a (network, property, box, splits) subproblem into
    an {!Ivan_lp.Lp.problem}:

    - the one-shot triangle LP {!build_lp}, a fresh minimal LP for a
      single subproblem;
    - the one-shot big-M MILP {!build_milp}, the exact encoding behind
      {!Analyzer.milp_verify} (one call decides a subproblem, so there is
      nothing to persist across calls); and
    - the {e persistent triangle encoding} {!Triangle}, built once per
      (network, property) pair and then {e specialized} per
      branch-and-bound node by mutating only variable bounds and the
      row slots of affected units.

    The persistent encoding is the incremental-verification fast path:
    because every node of a property shares one LP of fixed shape, a
    parent node's simplex basis ({!Ivan_lp.Lp.Basis.t}) is directly
    installable in its children, which is what makes
    {!Ivan_lp.Lp.solve_from} warm starts possible.  Specialization
    reproduces the one-shot per-node polytope exactly (the extra
    permanent variables are pinned by equality rows or [0,0] bounds at
    nodes where {!build_lp} would have substituted them away), so both
    paths compute identical optima and verdicts.

    {!Triangle.specialize} raises {!Mismatch} for subproblems the fixed
    shape cannot express — in practice, splits on units that were stable
    at the property root, which can occur when a specification tree
    built for one network is replayed against an updated network.
    Callers fall back to {!build_lp}. *)

module Lp = Ivan_lp.Lp
module Network = Ivan_nn.Network
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Splits = Ivan_domains.Splits
module Bounds = Ivan_domains.Bounds

exception Mismatch
(** A persistent encoding cannot represent the requested subproblem
    (wrong input dimension, a split on an unencoded unit, or corrupt
    bounds).  Recoverable: rebuild per node with {!build_lp}. *)

val build_lp :
  Network.t ->
  prop:Prop.t ->
  box:Box.t ->
  splits:Splits.t ->
  bounds:Bounds.t ->
  Lp.problem * float
(** One-shot triangle-relaxation LP for a single subproblem.  Returns
    the problem and the objective constant: the subproblem's optimum is
    [lp objective + constant]. *)

val build_milp :
  Network.t ->
  prop:Prop.t ->
  box:Box.t ->
  splits:Splits.t ->
  bounds:Bounds.t ->
  Lp.problem * float * int list
(** One-shot big-M MILP for a single subproblem: problem, objective
    constant, and the indicator (binary) variable indices.
    @raise Invalid_argument on non-ReLU networks. *)

(** Persistent triangle-relaxation encoding. *)
module Triangle : sig
  type t

  val build : Network.t -> prop:Prop.t -> t option
  (** Build the per-property encoding from the property root's DeepPoly
      bounds.  [None] when the root itself is DeepPoly-infeasible (the
      property is vacuously true everywhere, so no LP is ever needed). *)

  val specialize : t -> box:Box.t -> splits:Splits.t -> bounds:Bounds.t -> unit
  (** Rewrite variable bounds and per-unit rows for one node's
      (box, splits, bounds).  After this the underlying problem is
      exactly the node's triangle LP.  @raise Mismatch when the node is
      not expressible in this encoding (caller should fall back to
      {!build_lp}). *)

  val lp : t -> Lp.problem
  (** The shared underlying problem.  Solving it records a basis usable
      by {!Ivan_lp.Lp.solve_from} on any later specialization of the
      same encoding. *)

  val const : t -> float
  (** Objective constant (fixed across specializations: root-stable
      units are substituted with node-independent expressions). *)
end
