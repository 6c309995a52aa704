(** Structured event stream of a verification run.

    The {!Engine} (and the tree pruner) emit one {!event} per observable
    step of branch and bound; a {!sink} decides where events go — thrown
    away ([null]), kept in a bounded in-memory buffer ([ring]), written
    as JSON Lines ([channel] / {!with_jsonl_file}), or handed to a
    callback ([hook]).  A recorded JSONL trace {!read_jsonl}s back into
    the same events, and {!aggregate} folds any event list into the
    run's {!stats} — the very fold the engine applies to its own events
    — so a trace file is a complete, machine-readable account of where
    the verifier spent its effort. *)

type event =
  | Dequeued of { node : int; depth : int; frontier : int }
      (** a node left the frontier; [frontier] is the frontier length
          including this node, [depth] its tree depth *)
  | Analyzed of { node : int; status : string; lb : float; seconds : float }
      (** an analyzer call bounded the node's subproblem ([status] is
          [verified], [counterexample] or [unknown]) *)
  | Lp_solved of { node : int; warm_hits : int; warm_misses : int; cold_solves : int; pivots : int }
      (** the analyzer call solved LPs: how many warm-started from a
          parent basis, how many warm attempts fell back to cold, how
          many never attempted one, and the total simplex pivots *)
  | Split of { node : int; decision : Ivan_spectree.Decision.t; left : int; right : int }
      (** the node branched into children [left]/[right] *)
  | Pruned of { node : int }  (** reuse-prune: an ineffective split was skipped *)
  | Stuck of { node : int }
      (** the heuristic produced no decision on an unsolved node — a
          numerical failure, not budget exhaustion *)
  | Retried of { node : int; analyzer : string; attempt : int; reason : string }
      (** the resilience layer re-attempted a failing analyzer *)
  | Fallback of { node : int; analyzer : string; reason : string }
      (** a degraded (non-primary) analyzer's bound was accepted *)
  | Absorbed of { node : int; analyzer : string; reason : string }
      (** an analyzer failure was swallowed instead of crashing the run *)
  | Certified of { node : int; kind : string }
      (** certificate collection on a verified leaf: [kind] is ["dual"]
          or ["farkas"] when a checkable certificate was emitted, and
          ["unavailable"] when the leaf's verdict carried none (or the
          emission-time exact self-check rejected it) *)
  | Verdict of {
      verdict : string;
      calls : int;
      seconds : float;
      counterexample : Ivan_tensor.Vec.t option;
    }
      (** terminal event: [proved], [disproved] (with its
          [counterexample]) or [exhausted] *)

type sink

val null : sink
(** Discards everything (the default; tracing costs nothing). *)

val ring : capacity:int -> sink
(** Keeps the most recent [capacity] events in memory.
    @raise Invalid_argument if [capacity <= 0]. *)

val ring_contents : sink -> event list
(** Buffered events, oldest first; [[]] for non-ring sinks. *)

val channel : out_channel -> sink
(** Writes each event as one JSON line.  The caller owns the channel. *)

val hook : (event -> unit) -> sink

val tee : sink -> sink -> sink
(** Duplicates every event to both sinks. *)

val emit : sink -> event -> unit

val with_jsonl_file : string -> (sink -> 'a) -> 'a
(** [with_jsonl_file path f] opens [path], runs [f] with a JSONL sink
    writing to it, and closes the file (also on exceptions). *)

val event_to_json : event -> string
(** One-line JSON object; floats round-trip exactly (non-finite values
    are encoded as the strings ["nan"], ["inf"], ["-inf"]). *)

val event_of_json : string -> event
(** Inverse of {!event_to_json}.  @raise Failure on malformed input. *)

val read_jsonl : string -> event list
(** Parse a file of {!event_to_json} lines (blank lines are skipped). *)

type stats = {
  analyzer_calls : int;  (** bounding steps (the paper's Cost metric) *)
  branchings : int;  (** node branchings *)
  tree_size : int;  (** [|Nodes(T_f)|] *)
  tree_leaves : int;
  elapsed_seconds : float;
  analyzer_seconds : float;  (** wall-clock spent inside analyzer calls *)
  max_frontier : int;  (** largest frontier observed at a dequeue *)
  max_depth : int;  (** deepest node dequeued *)
  heuristic_failures : int;
      (** unsolved nodes the heuristic could not branch (numerical
          failure, reported distinctly from budget exhaustion) *)
  retries : int;  (** analyzer re-attempts made by the resilience layer *)
  fallback_bounds : int;
      (** nodes whose accepted bound came from a degraded (non-primary)
          analyzer in the fallback chain *)
  faults_absorbed : int;
      (** analyzer failures (exceptions or untrustworthy outcomes)
          swallowed instead of crashing the run *)
  lp_warm_hits : int;
      (** node LP solves that warm-started from the parent's simplex
          basis ({!Ivan_lp.Lp.solve_from} succeeded) *)
  lp_warm_misses : int;
      (** warm-start attempts that fell back to an internal cold solve *)
  lp_cold_solves : int;
      (** node LP solves that never attempted a warm start (root node,
          resumed runs, nodes laid out outside the property's encoding,
          hint-dropping analyzers) *)
  lp_pivots : int;  (** total simplex pivots across all node LP solves *)
  certs_emitted : int;
      (** verified leaves whose certificate passed the emission-time
          exact self-check (0 unless the run collects certificates) *)
  certs_unavailable : int;
      (** verified leaves with no checkable certificate — the analyzer
          produced none (non-LP verdict, fallback bound) or the exact
          self-check rejected the solver's multipliers *)
}
(** A run's summary statistics: the counter part of the engine state,
    maintained by folding every event through {!count}. *)

val root_stats : stats
(** The statistics of a run that has not started on a single-root
    tree: every counter 0, one node, one leaf. *)

val count : stats -> event -> stats
(** One event's effect on the counters.  [Split] adds two nodes and one
    leaf; [Verdict] adds its [seconds] to [elapsed_seconds] (so the fold
    of a multi-run trace sums the runs' times); [Pruned] (a pruner
    event) counts nothing. *)

val aggregate : event list -> stats
(** [List.fold_left count root_stats events].  On the full trace of an
    engine run from a single root this reproduces the run's [stats]
    exactly (a run seeded with a larger initial tree starts from that
    tree's size instead). *)
