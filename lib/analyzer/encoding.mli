(** LP / MILP encodings of verification subproblems.

    Two encoders turn a (network, property, box, splits) subproblem
    into an {!Ivan_lp.Lp.problem}:

    - the {e triangle encoding} {!Triangle}, the LP behind
      {!Analyzer.lp_triangle}.  One layer walker lays it out from a
      (box, splits, bounds) triple: every piecewise unit that is split
      or ambiguous under the bounds gets an LP variable and fixed row
      slots, every other unit is substituted by its stable phase.  Laid
      out once per (network, property) pair from the property root's
      DeepPoly bounds ({!Triangle.build}), it is then {e specialized}
      per branch-and-bound node by mutating only variable bounds and
      the row slots of affected units;
    - the one-shot big-M MILP {!build_milp}, the exact encoding behind
      {!Analyzer.milp_verify} (one call decides a subproblem, so there is
      nothing to persist across calls).

    Because every node of a property shares one LP of fixed shape, a
    parent node's simplex basis ({!Ivan_lp.Lp.Basis.t}) is directly
    installable in its children, which is what makes
    {!Ivan_lp.Lp.solve_from} warm starts possible.

    {!Triangle.specialize} raises {!Mismatch} for subproblems the fixed
    shape cannot express — in practice, splits on units that were stable
    at the property root, which can occur when a specification tree
    built for one network is replayed against an updated network.  Such
    a node is laid out alone with {!build_lp}. *)

module Lp = Ivan_lp.Lp
module Network = Ivan_nn.Network
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Splits = Ivan_domains.Splits
module Bounds = Ivan_domains.Bounds

exception Mismatch
(** A triangle encoding cannot represent the requested subproblem
    (wrong input dimension, a split on an unencoded unit, or NaN or
    inverted bounds).  A root encoding's mismatch is recoverable: lay
    the node out alone with {!build_lp}. *)

val build_lp :
  Network.t ->
  prop:Prop.t ->
  box:Box.t ->
  splits:Splits.t ->
  bounds:Bounds.t ->
  Lp.problem * float
(** The triangle LP of a single subproblem: the encoding laid out from
    this node's own (box, splits, bounds) and specialized to it.
    Returns the problem and the objective constant: the subproblem's
    optimum is [lp objective + constant].
    @raise Mismatch when even this node's own layout cannot express it
    (NaN or inverted bounds on an encoded unit). *)

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

(** Triangle-relaxation encoding. *)
module Triangle : sig
  type t

  val build : Network.t -> prop:Prop.t -> t option
  (** Lay out the per-property encoding from the property root's
      DeepPoly bounds.  [None] when the root itself is DeepPoly-infeasible
      (the property is vacuously true everywhere, so no LP is ever
      needed). *)

  val encodes : t -> Network.t -> prop:Prop.t -> bool
  (** Whether the encoding was built for this network and property,
      both compared physically. *)

  val specialize : t -> box:Box.t -> splits:Splits.t -> bounds:Bounds.t -> unit
  (** Rewrite variable bounds and per-unit rows for one node's
      (box, splits, bounds).  After this the underlying problem is
      exactly the node's triangle LP.  @raise Mismatch when the node is
      not expressible in this encoding. *)

  val lp : t -> Lp.problem
  (** The shared underlying problem.  Solving it records a basis usable
      by {!Ivan_lp.Lp.solve_from} on any later specialization of the
      same encoding. *)

  val const : t -> float
  (** Objective constant (fixed across specializations: root-stable
      units are substituted with node-independent expressions). *)
end
