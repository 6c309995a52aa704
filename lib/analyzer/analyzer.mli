(** Sound analyzers (Definition 5).

    An analyzer bounds the property objective [c . N(x) + offset] over a
    subproblem — an input box plus ReLU split assumptions — and returns
    [Verified], a concrete [Counterexample], or [Unknown].  Soundness:
    [Verified] implies the property holds on the subproblem;
    [Counterexample x] implies [x] lies in the property's input region
    and concretely violates [psi].

    Three analyzers are provided:
    - {!lp_triangle}: DeepPoly bounds + LP with the triangle relaxation —
      the paper's baseline for ReLU-splitting BaB [Bunel et al. 2020;
      Ehlers 2017], with GUROBI replaced by {!Ivan_lp.Lp}.
    - {!zonotope}: DeepZ affine forms — the bounding engine of the
      RefineZono-style input-splitting baseline (paper §6.4).
    - {!interval}: plain box propagation, mainly for tests. *)

type status = Verified | Counterexample of Ivan_tensor.Vec.t | Unknown

type lp_report = {
  warm_hits : int;  (** solves warm-started successfully *)
  warm_misses : int;  (** {!Ivan_lp.Lp.solve_from} fell back to cold *)
  cold_solves : int;  (** solves that never attempted a warm start *)
  pivots : int;  (** total simplex pivots across the call's solves *)
  basis : Ivan_lp.Lp.Basis.t option;
      (** basis to hand to child nodes as their [hint]; [None] when the
          solve used a one-shot (non-reusable) encoding or did not end
          [Optimal] *)
}
(** The LP work of one analyzer call. *)

type outcome = {
  status : status;
  lb : float;
      (** lower bound on the objective; [+inf] for a vacuously verified
          (empty) subproblem *)
  bounds : Ivan_domains.Bounds.t option;
      (** per-neuron bounds, absent when the subproblem region is empty *)
  zono : Ivan_domains.Zonotope.analysis option;
      (** zonotope run used for branching scores, when available *)
  cert : Ivan_cert.Cert.evidence option;
      (** checkable evidence for the node's LP verdict (dual multipliers
          with the frozen LP, or a Farkas witness); only produced by
          {!lp_triangle} with [certify] set — [None] from every other
          analyzer and from cheap-bound shortcuts, which the engine
          counts as certificate-unavailable *)
  lp : lp_report option;  (** present iff the call solved an LP *)
}

val unknown : outcome
(** The outcome that claims nothing: [Unknown] with [lb = neg_infinity]
    and no bounds, certificate or LP report. *)

type t = {
  name : string;
  run :
    ?hint:Ivan_lp.Lp.Basis.t ->
    Ivan_nn.Network.t ->
    prop:Ivan_spec.Prop.t ->
    box:Ivan_spec.Box.t ->
    splits:Ivan_domains.Splits.t ->
    outcome;
}
(** [box] is the subproblem's input region (equal to [prop.input] under
    ReLU splitting; a sub-box under input splitting).  [hint] is the
    parent node's optimal simplex basis (its outcome's [lp.basis]);
    LP-backed analyzers warm-start from it, all others ignore it. *)

val instrument :
  on_run:(name:string -> elapsed:float -> outcome:outcome -> unit) -> t -> t
(** [instrument ~on_run a] is [a] with every [run] timed: [on_run] fires
    after each call with the analyzer's name, the wall-clock seconds the
    call took, and its outcome.  The BaB engine uses this hook to
    attribute time to the analyzer boundary; it composes (instrumenting
    twice fires both hooks). *)

val lp_triangle : ?deeppoly_shortcut:bool -> ?certify:bool -> unit -> t
(** The LP analyzer.  When [deeppoly_shortcut] is true (default), a
    subproblem already proved by the DeepPoly pass skips the LP solve;
    the returned [lb] is then DeepPoly's.  Each [run] also performs a
    zonotope pass so branching heuristics can score ReLUs.

    [certify] (default false) makes every LP-decided outcome carry
    {!Ivan_cert.Cert.evidence}: the solver's dual or Farkas multipliers
    together with a frozen copy of the node's LP, ready for exact
    re-checking.  Certification disables the DeepPoly shortcut (a
    shortcut verdict has no LP certificate) and snapshots each solved
    LP, so it costs extra time and memory — the [--certify] bench suite
    quantifies it.  Verdicts and bounds are unchanged.

    Node LPs come from a persistent per-(network, property) encoding
    ({!Encoding.Triangle}) specialized in place per subproblem.  A
    [hint] basis warm-starts the simplex ({!Ivan_lp.Lp.solve_from});
    without one the node LP is solved cold ({!Ivan_lp.Lp.solve}).  Both
    entry points solve the identical specialized LP, so a run whose
    hints are dropped has the same verdicts and bounds — that is how a
    cold run is expressed. *)

val zonotope : unit -> t

val deeppoly : unit -> t
(** DeepPoly back-substituted bounds without the LP pass — the middle
    rung of the degradation ladder used by {!with_fallback}: cheaper and
    numerically simpler than {!lp_triangle}, tighter than {!interval}. *)

val interval : unit -> t

val check_concrete :
  Ivan_nn.Network.t -> prop:Ivan_spec.Prop.t -> Ivan_tensor.Vec.t -> bool
(** [check_concrete net ~prop x] is true when [x] is a genuine
    counterexample: inside the property's input region and violating
    [psi] on the concrete network. *)

(** {2 Exact MILP verification}

    The "one-shot" alternative to BaB: a big-M indicator encoding of
    every ambiguous ReLU solved by {!Ivan_lp.Milp}.  Used as an exact
    oracle in tests and to reproduce the paper's §7 observation that
    MILP warm-starting yields insignificant incremental speedup.
    Supports plain-ReLU networks only. *)

type milp_outcome = {
  milp_status : status;
  milp_lb : float;
      (** the exact objective minimum when a violating point exists;
          otherwise the cutoff that nothing beat (0 for a plain verified
          run) *)
  nodes : int;  (** branch-and-bound nodes explored *)
  lp_solves : int;
  witness : Ivan_tensor.Vec.t option;  (** minimizing input, if found *)
  milp_lp : lp_report option;  (** the LP work of the search, if it ran *)
}

val milp_verify :
  ?max_nodes:int ->
  ?incumbent:float ->
  Ivan_nn.Network.t ->
  prop:Ivan_spec.Prop.t ->
  box:Ivan_spec.Box.t ->
  splits:Ivan_domains.Splits.t ->
  milp_outcome
(** The search always prunes branches that cannot push the objective
    below 0 (they cannot yield counterexamples).  [incumbent] — a known
    achievable margin, e.g. of the previous network's minimizing input
    evaluated on this network — tightens the cutoff further when
    negative; this is MILP warm starting, and exactly as the paper's §7
    observes, it cannot help on instances that end up verified.  Each
    call builds a fresh one-shot encoding ({!Encoding.build_milp}); each
    MILP node's LP relaxation warm-starts from its parent's simplex
    basis.
    @raise Invalid_argument on leaky-ReLU networks. *)

val milp_exact : ?max_nodes:int -> unit -> t
(** {!milp_verify} wrapped as an analyzer: complete in one call. *)

(** {2 Resilience}

    Retry-then-degrade combinator.  A wrapped analyzer never lets a
    non-fatal exception escape and never returns an outcome that could
    violate soundness: results are sanity-checked (no NaN bound, no
    [Verified] with a negative bound, counterexamples re-checked
    concretely), failing analyzers are retried a bounded number of
    times, and persistent failures fall through a chain of progressively
    cheaper analyzers before finally degrading to [Unknown]. *)

type policy = {
  max_retries : int;  (** re-attempts per analyzer before falling back *)
  node_timeout : float;
      (** cooperative wall-clock cap in seconds per node: no new attempt
          starts past the deadline (a running call is not preempted) *)
  fallback : bool;  (** when false the default chain is empty *)
}

val default_policy : policy
(** [{ max_retries = 1; node_timeout = infinity; fallback = true }] *)

type fallback_event =
  | Retried of { analyzer : string; attempt : int; reason : string }
      (** an analyzer failed and is being re-attempted *)
  | Fell_back of { analyzer : string; reason : string }
      (** a non-primary analyzer's outcome was accepted (once per node) *)
  | Absorbed of { analyzer : string; reason : string }
      (** a failure (exception or untrustworthy outcome) was swallowed *)

val fatal_exn : exn -> bool
(** True for conditions the resilience layer must re-raise rather than
    absorb: [Out_of_memory], [Stack_overflow], [Sys.Break]. *)

val with_fallback :
  ?chain:t list -> ?notify:(fallback_event -> unit) -> policy:policy -> t -> t
(** [with_fallback ~policy primary] is [primary] hardened per the policy.
    [chain] overrides the degradation ladder (default: {!deeppoly} then
    {!interval}, minus any analyzer sharing the primary's name; empty
    when [policy.fallback] is false).  [notify] observes resilience
    events — the BaB engine uses it to count retries, fallback bounds
    and absorbed faults.  When the chain is exhausted or the node
    deadline passes, the result is a degraded [Unknown] outcome with
    [lb = neg_infinity].
    @raise Invalid_argument on a negative [max_retries] or non-positive
    [node_timeout]. *)
