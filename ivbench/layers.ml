(* Traced passes: the same three phases as [Passes.plain], but every
   layer boundary is timed and counted from the benchmark's side — the
   analyzer through [Analyzer.instrument], the heuristic by wrapping its
   [scores], the engine through a [Trace.hook] sink, IVAN's preparation
   by calling [Prune.prune], [Effectiveness.observe] and [Hdelta.make]
   directly (exactly as [Ivan.verify_updated] composes them), the
   journal through a writer built around a timed file channel, and the
   certificate checker around [Cert.check_artifact].  After each run the
   stage replay re-executes the nodes it bounded.  No library code is
   changed. *)

module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Trace = Ivan_bab.Trace
module Bab = Ivan_bab.Bab
module Tree = Ivan_spectree.Tree
module Journal = Ivan_resilience.Journal
module Cert = Ivan_cert.Cert
module Ivan = Ivan_core.Ivan
module Prune = Ivan_core.Prune
module Effectiveness = Ivan_core.Effectiveness
module Hdelta = Ivan_core.Hdelta

type t = {
  mutable analyzer_calls : int;
  mutable analyzer_s : float;
  mutable heuristic_calls : int;
  mutable heuristic_s : float;
  mutable bab_s : float;  (** wall time inside [Bab.verify] *)
  mutable nodes : int;
  mutable max_frontier : int;
  mutable lp_solves : int;
  mutable lp_pivots : int;
  mutable lp_warm_hits : int;
  mutable pruned_splits : int;
  mutable t0_nodes : int;
  mutable prep_s : float;
  mutable journal_appends : int;
  mutable journal_bytes : int;
  mutable journal_s : float;
  mutable certs_emitted : int;
  mutable certs_unavailable : int;
  mutable cert_check_s : float;
  mutable artifact_bytes : int;
  replay : Replay.t;
}

let create () =
  {
    analyzer_calls = 0;
    analyzer_s = 0.0;
    heuristic_calls = 0;
    heuristic_s = 0.0;
    bab_s = 0.0;
    nodes = 0;
    max_frontier = 0;
    lp_solves = 0;
    lp_pivots = 0;
    lp_warm_hits = 0;
    pruned_splits = 0;
    t0_nodes = 0;
    prep_s = 0.0;
    journal_appends = 0;
    journal_bytes = 0;
    journal_s = 0.0;
    certs_emitted = 0;
    certs_unavailable = 0;
    cert_check_s = 0.0;
    artifact_bytes = 0;
    replay = Replay.create ();
  }

(* Engine self time: what [Bab.verify] spent outside the analyzer and
   the heuristic (frontier, tree, trace, journal, certificate
   self-checks). *)
let engine_self_s l = l.bab_s -. l.analyzer_s -. l.heuristic_s

let now = Ivan_clock.Clock.monotonic

(* The same writer [Journal.open_file] builds, with each write and flush
   timed. *)
let timed_journal l path =
  let oc = open_out_bin path in
  let emit frame =
    let t0 = now () in
    output_string oc frame;
    l.journal_s <- l.journal_s +. (now () -. t0);
    l.journal_appends <- l.journal_appends + 1;
    l.journal_bytes <- l.journal_bytes + String.length frame
  in
  let flush () =
    let t0 = now () in
    Stdlib.flush oc;
    l.journal_s <- l.journal_s +. (now () -. t0)
  in
  Journal.create ~emit ~flush ~close:(fun () -> close_out_noerr oc) ()

let runner (w : Workloads.t) l : Passes.runner =
  let config = Workloads.config w in
  let base_heuristic = Workloads.heuristic w in
  let events = ref [] in
  let sink =
    Trace.hook (fun e ->
        events := e :: !events;
        match e with
        | Trace.Dequeued { frontier; _ } ->
            l.nodes <- l.nodes + 1;
            l.max_frontier <- max l.max_frontier frontier
        | Trace.Lp_solved { warm_hits; warm_misses; cold_solves; pivots; _ } ->
            l.lp_solves <- l.lp_solves + warm_hits + warm_misses + cold_solves;
            l.lp_warm_hits <- l.lp_warm_hits + warm_hits;
            l.lp_pivots <- l.lp_pivots + pivots
        | Trace.Pruned _ -> l.pruned_splits <- l.pruned_splits + 1
        | _ -> ())
  in
  let analyzer =
    Analyzer.instrument
      ~on_run:(fun ~name:_ ~elapsed ~outcome:_ ->
        l.analyzer_calls <- l.analyzer_calls + 1;
        l.analyzer_s <- l.analyzer_s +. elapsed)
      (Workloads.analyzer w)
  in
  let timed_heuristic (h : Heuristic.t) =
    {
      h with
      Heuristic.scores =
        (fun ctx ->
          let t0 = now () in
          let scores = h.Heuristic.scores ctx in
          l.heuristic_s <- l.heuristic_s +. (now () -. t0);
          l.heuristic_calls <- l.heuristic_calls + 1;
          scores);
    }
  in
  (* Same arguments as [Ivan.verify_original] / [Ivan.verify_updated]
     pass to [Bab.verify]. *)
  let bab ~net ~prop ~heuristic ?initial_tree ~journal () =
    events := [];
    let t0 = now () in
    let run =
      Bab.verify ~analyzer ~heuristic:(timed_heuristic heuristic) ~strategy:config.Ivan.strategy ~trace:sink
        ~budget:config.Ivan.budget ~policy:config.Ivan.policy ~certify:config.Ivan.certify ?journal ?initial_tree
        ~net ~prop ()
    in
    l.bab_s <- l.bab_s +. (now () -. t0);
    l.certs_emitted <- l.certs_emitted + run.Bab.stats.Bab.certs_emitted;
    l.certs_unavailable <- l.certs_unavailable + run.Bab.stats.Bab.certs_unavailable;
    run
  in
  let updated ~technique ~original_run ~net ~prop ~journal =
    match technique with
    | Ivan.Baseline -> bab ~net ~prop ~heuristic:base_heuristic ~journal ()
    | Ivan.Full ->
        let t0 = now () in
        let tree = original_run.Bab.tree in
        let pruned = Prune.prune ~trace:sink ~theta:config.Ivan.theta tree in
        let heuristic =
          Hdelta.make ~base:base_heuristic ~observed:(Effectiveness.observe tree) ~alpha:config.Ivan.alpha
            ~theta:config.Ivan.theta
        in
        l.prep_s <- l.prep_s +. (now () -. t0);
        l.t0_nodes <- l.t0_nodes + Tree.size pruned;
        bab ~net ~prop ~heuristic ~initial_tree:pruned ~journal ()
    | Ivan.Reuse | Ivan.Reorder -> invalid_arg "Layers.runner: only the baseline and full IVAN are measured"
  in
  {
    Passes.original = (fun ~net ~prop ~journal -> bab ~net ~prop ~heuristic:base_heuristic ~journal ());
    updated;
    open_journal = timed_journal l;
    check_artifact =
      (fun a ->
        let t0 = now () in
        let verdict = Cert.check_artifact a in
        l.cert_check_s <- l.cert_check_s +. (now () -. t0);
        l.artifact_bytes <- l.artifact_bytes + String.length (Cert.Artifact.to_string a);
        verdict);
    observe = (fun ~net ~prop run -> Replay.run l.replay w ~net ~prop run (List.rev !events));
  }
