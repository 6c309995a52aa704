(** The branch-and-bound verification engine (Algorithms 1 and 3) as an
    explicit-state stepper.

    {!create} builds the engine state — the specification tree, the
    frontier of unbounded leaves, the {!stats} counters — and {!step}
    processes exactly one frontier node: dequeue, bound with the
    analyzer, then verify / report a counterexample / branch.  Callers
    can drive the loop themselves (interleaving verification with other
    work, or cancelling via {!cancel}); {!run} steps to completion.
    [Bab.verify] is a thin wrapper over [create] + [run] and keeps the
    historical interface.

    The engine is event-sourced: a step computes and emits
    {!Trace.event}s, and one state transition applies each event to the
    tree, the frontier, the counters and the terminal verdict.  The
    same transition replays journaled events on {!resume_journal}, and
    its counter part is {!Trace.count} — so a run's trace, its journal
    and its [stats] cannot disagree.

    The node-selection order is a pluggable {!Frontier.strategy}; every
    step can be observed through a {!Trace.sink}.  The wall-clock budget
    is enforced centrally — one clock read every 8 steps rather than per
    node. *)

type budget = {
  max_analyzer_calls : int;
  max_seconds : float;  (** wall-clock limit; [infinity] disables it *)
}

val default_budget : budget
(** 10_000 analyzer calls, no time limit. *)

val default_journal_every : int
(** Steps between journal Checkpoint frames (32) — the default bound on
    how many Step frames a resume must replay. *)

type stats = Trace.stats
(** The run's counters, maintained by folding its events ({!Trace.count}). *)

type verdict =
  | Proved
  | Disproved of Ivan_tensor.Vec.t  (** a concrete counterexample *)
  | Exhausted  (** budget ran out — the paper's "Unknown / timeout" *)

type run = {
  verdict : verdict;
  tree : Ivan_spectree.Tree.t;
  stats : stats;
  artifact : Ivan_cert.Cert.Artifact.t option;
      (** the run's proof artifact, present iff the engine was created
          with [certify] and the verdict is [Proved] or [Disproved];
          validate with {!Ivan_cert.Cert.check_artifact} — a [Proved]
          artifact is complete only when [stats.certs_unavailable = 0] *)
}

type t
(** Mutable engine state. *)

val create :
  analyzer:Ivan_analyzer.Analyzer.t ->
  heuristic:Heuristic.t ->
  ?strategy:Frontier.strategy ->
  ?trace:Trace.sink ->
  ?budget:budget ->
  ?policy:Ivan_analyzer.Analyzer.policy ->
  ?certify:bool ->
  ?journal:Ivan_resilience.Journal.writer ->
  ?journal_every:int ->
  ?initial_tree:Ivan_spectree.Tree.t ->
  net:Ivan_nn.Network.t ->
  prop:Ivan_spec.Prop.t ->
  unit ->
  t
(** [strategy] defaults to [Fifo] (the exact breadth-first order of the
    original implementation); [trace] to {!Trace.null}.  The wall-clock
    budget check always fires on the first step, so a zero time budget
    exhausts before any analyzer call.  [initial_tree] (default: a
    single root node) is copied, never mutated.

    [policy], when supplied, hardens the analyzer with
    {!Ivan_analyzer.Analyzer.with_fallback}: failures are retried, then
    degraded through cheaper analyzers, and counted into the run's
    [retries] / [fallback_bounds] / [faults_absorbed] stats and emitted
    as {!Trace.Retried} / {!Trace.Fallback} / {!Trace.Absorbed} events.
    Even without a policy the engine absorbs non-fatal analyzer
    exceptions, turning the node into an [Unknown] outcome rather than
    crashing the run.

    [journal], when supplied, turns on write-ahead journaling: a Header
    frame with the run's config fingerprint is appended immediately,
    then each completed step appends exactly one Step frame (the step's
    trace events as JSONL — atomic, so a kill never journals half a
    step), and every [journal_every] (default
    {!default_journal_every}) steps — plus the terminal step — a
    Checkpoint frame folds the whole prefix into a snapshot of the
    state.  A killed run resumes from its journal via {!resume_journal}
    with at most one node of rework.
    Events produced while a journal is attached still reach [trace]
    unchanged.

    [certify] (default false) collects a proof certificate for every
    verified leaf: the analyzer's LP evidence (pass an analyzer built
    with the matching [certify] flag, e.g.
    [Analyzer.lp_triangle ~certify:true ()]) is re-checked in exact
    arithmetic on the spot and, if accepted, keyed to the leaf; the
    certificates are assembled into the run's [artifact] at completion.
    Leaves without acceptable evidence are counted in
    [stats.certs_unavailable] and traced as {!Trace.Certified} with kind
    ["unavailable"] — the engine never emits a certificate the
    independent checker would reject.
    @raise Invalid_argument if the property's box dimension does not
    match the network input, or if [journal_every <= 0]. *)

type status = Running | Finished of run

val step : t -> status
(** Process one frontier node.  Idempotent after completion: keeps
    returning the same [Finished] run. *)

val run : t -> run
(** Step until finished. *)

val cancel : t -> run
(** Finish immediately: emits the terminal trace event and returns an
    [Exhausted] run over the tree built so far (or the already-finished
    run).  Subsequent {!step} calls return it unchanged. *)

val tree : t -> Ivan_spectree.Tree.t
(** Live view of the specification tree being grown. *)

val calls : t -> int

val frontier_length : t -> int

val finished : t -> run option

(** {2 Journal resume}

    The journal is the one persistence format: a checkpoint is a
    compacted journal (a Header frame plus one Checkpoint frame, see
    {!compacted_journal}), read by the same {!resume_journal}.

    Recovery after a kill: {!Ivan_resilience.Journal.scan} truncates the
    journal to its valid frame prefix, the engine state is rebuilt from
    the newest Checkpoint frame, and the events of the Step frames
    recorded after it are applied through the same state transition a
    live step uses — no analyzer or LP calls; the tree, frontier and
    counters evolve exactly as the original run's trace says they did.
    Work is lost only for the step that was in flight when the process
    died (its Step frame never landed), so rework is bounded by one
    node.

    Parked warm-start bases and leaf certificates are not journaled:
    the first LP solve of each resumed frontier node runs cold, and
    leaves verified before a resume carry no certificate, so a resumed
    [Proved] artifact fails {!Ivan_cert.Cert.check_artifact} with those
    leaves reported missing — certification honestly requires an
    uninterrupted run. *)

type resume_info = {
  replayed_steps : int;  (** Step frames replayed onto the checkpoint *)
  replayed_calls : int;  (** analyzer calls those steps recorded *)
  valid_bytes : int;  (** journal prefix accepted by recovery *)
  dropped_bytes : int;  (** torn / corrupt tail bytes discarded *)
}

val resume_journal :
  analyzer:Ivan_analyzer.Analyzer.t ->
  heuristic:Heuristic.t ->
  ?trace:Trace.sink ->
  ?strategy:Frontier.strategy ->
  ?policy:Ivan_analyzer.Analyzer.policy ->
  ?certify:bool ->
  ?budget:budget ->
  ?journal:Ivan_resilience.Journal.writer ->
  ?journal_every:int ->
  net:Ivan_nn.Network.t ->
  prop:Ivan_spec.Prop.t ->
  string ->
  (t * resume_info, string) result
(** Rebuild an engine from raw journal bytes (the newest run in the
    journal, per {!Ivan_resilience.Journal.last_run}).  The journal's
    Header fingerprint must match [net]/[prop] — resuming against the
    wrong problem is an [Error], as is a malformed checkpoint or any
    replay divergence, so a stale journal can never silently corrupt a
    verdict; no parse exception escapes.  [strategy] only applies when
    the journal died before its first Checkpoint frame landed (the run
    is started fresh); otherwise the recorded strategy wins.

    [budget] overrides the recorded budget.  Terminal runs stay
    terminal, with one exception: an [Exhausted] run resumed with an
    overriding [budget] and a non-empty frontier continues the search,
    so a run that ran out of budget can be granted more.  A run that
    stopped on a node the heuristic could not split keeps that node on
    its frontier, so continuing it never proves the property without
    it.

    [journal], when supplied, continues journaling: into the same file
    (the journal is rewritten compacted — Header, then a Checkpoint of
    the resumed state; read the old bytes before
    {!Ivan_resilience.Journal.open_file} truncates them) or a fresh
    one. *)

val compacted_journal : t -> string
(** The engine's state as journal bytes: a Header frame and one
    Checkpoint frame.  {!resume_journal} of these bytes continues
    exactly where the engine stands (parked bases and leaf certificates
    aside, see above) — the elapsed-time clock resumes from the recorded
    value. *)

val fold_journal : t -> unit
(** Append a Checkpoint frame folding the current state to the
    engine's journal, so a resume replays no Step frames (no-op without
    a journal). *)

val fingerprint : net:Ivan_nn.Network.t -> prop:Ivan_spec.Prop.t -> string
(** The config digest stored in journal Header frames: an MD5 hex digest
    over the serialized network and the property's box, coefficients and
    offset. *)
