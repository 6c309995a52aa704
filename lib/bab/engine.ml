module Network = Ivan_nn.Network
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Analyzer = Ivan_analyzer.Analyzer
module Tree = Ivan_spectree.Tree
module Lp = Ivan_lp.Lp
module Cert = Ivan_cert.Cert
module Clock = Ivan_clock.Clock
module Journal = Ivan_resilience.Journal

type budget = { max_analyzer_calls : int; max_seconds : float }

let default_budget = { max_analyzer_calls = 10_000; max_seconds = infinity }

let default_journal_every = 32

(* Steps between wall-clock budget checks. *)
let check_time_every = 8

type stats = Trace.stats

type verdict = Proved | Disproved of Ivan_tensor.Vec.t | Exhausted

type run = {
  verdict : verdict;
  tree : Tree.t;
  stats : stats;
  artifact : Cert.Artifact.t option;
}

(* The engine state.  {!apply} is its only mutator: [step] computes
   (dequeue, analyzer call, heuristic) and emits events, and every event
   — live, or replayed from a journal — changes the state through
   [apply] alone. *)
type t = {
  mutable analyzer : Analyzer.t;  (* wrapped by the resilience policy once [t] exists *)
  heuristic : Heuristic.t;
  budget : budget;
  trace : Trace.sink;
  net : Network.t;
  prop : Prop.t;
  tree : Tree.t;
  frontier : Tree.node Frontier.t;
  started : float;
  mutable current : Tree.node option;  (* the node the step in flight dequeued *)
  (* Resume cache: the parent's hint (LP basis and domain analyses) for
     each frontier node whose parent split, and the previous node's
     domain analyses for a node with nothing parked.  A performance
     cache, not verification state — events do not carry hints, so
     replayed nodes start from scratch. *)
  hints : (int, Analyzer.hint) Hashtbl.t;
  mutable previous : Analyzer.hint;
  certify : bool;
  (* Per-leaf certificates keyed by node id, self-checked in exact
     arithmetic before being admitted; assembled into the run's proof
     artifact.  Like [hints], certificates travel beside their events,
     never inside them: a resumed run holds none for the leaves verified
     before the resume (they count as missing in the artifact check,
     never as silently certified). *)
  certs : (int, Cert.leaf) Hashtbl.t;
  (* Write-ahead journal: the events of the step in flight accumulate in
     [jbuf] (newest first) and are flushed as one atomic Step frame when
     the step completes; every [journal_every] Step frames (and at the
     terminal step) a Checkpoint frame folds the whole prefix. *)
  mutable journal : Journal.writer option;
  mutable journal_every : int;
  mutable jbuf : Trace.event list;
  mutable jsteps : int;  (* Step frames since the last Checkpoint frame *)
  mutable steps : int;
  mutable stats : stats;
  mutable finished : run option;
}

let verdict_label = function
  | Proved -> "proved"
  | Disproved _ -> "disproved"
  | Exhausted -> "exhausted"

let status_label = function
  | Analyzer.Verified -> "verified"
  | Analyzer.Counterexample _ -> "counterexample"
  | Analyzer.Unknown -> "unknown"

let tree t = t.tree

let calls t = t.stats.analyzer_calls

let frontier_length t = Frontier.length t.frontier

let finished t = t.finished

(* The proof artifact of a certified run: the final tree with one
   checked certificate per verified leaf ([Proved]), or the concrete
   counterexample ([Disproved]).  Leaves whose certificate was
   unavailable are simply absent from [leaves] — [Cert.check_artifact]
   reports them as missing rather than this code guessing.  An
   [Exhausted] run proves nothing, so it carries no artifact. *)
let artifact_of t verdict =
  let artifact verdict leaves =
    Some { Cert.Artifact.net = t.net; prop = t.prop; verdict; tree = t.tree; leaves }
  in
  if not t.certify then None
  else
    match verdict with
    | Exhausted -> None
    | Proved ->
        artifact Cert.Artifact.Proved
          (List.filter_map (fun n -> Hashtbl.find_opt t.certs (Tree.node_id n)) (Tree.leaves t.tree))
    | Disproved x -> artifact (Cert.Artifact.Disproved (Array.copy x)) []

(* ------------------------------------------------------------------ *)
(* The state transition *)

let fail fmt = Printf.ksprintf failwith fmt

(* Every event of a step is about the node that step dequeued. *)
let current t id =
  match t.current with
  | Some n when Tree.node_id n = id -> n
  | _ -> fail "event for node %d outside its step" id

let current_id t = match t.current with Some n -> Tree.node_id n | None -> -1

(* Apply one event to the state.  [hint] and [leaf] are the data a live
   step has beside its event — the node's outcome hint (kept, without
   its basis, for the next node of an [Analyzed] event, and parked for
   the children of a [Split] as far as they can use it) and its checked
   certificate (kept for a [Certified] leaf); replay has neither.  A
   replayed event that does not fit the state (a diverging journal)
   raises [Failure]. *)
let apply ?hint ?leaf t ev =
  if Option.is_some t.finished then fail "event after the terminal verdict";
  t.stats <- Trace.count t.stats ev;
  match ev with
  | Trace.Dequeued { node; frontier; _ } -> (
      if Frontier.length t.frontier <> frontier then
        fail "frontier length diverged at node %d (event %d, engine %d)" node frontier
          (Frontier.length t.frontier);
      match Frontier.pop t.frontier with
      | Some n when Tree.node_id n = node ->
          t.steps <- t.steps + 1;
          t.current <- Some n;
          Hashtbl.remove t.hints node
      | _ -> fail "frontier order diverged at node %d" node)
  | Trace.Analyzed { node; lb; _ } ->
      Tree.set_lb (current t node) lb;
      Option.iter (fun (h : Analyzer.hint) -> t.previous <- { h with basis = None }) hint
  | Trace.Split { node; decision; left; right } ->
      let n = current t node in
      let l, r = Tree.split t.tree n decision in
      if Tree.node_id l <> left || Tree.node_id r <> right then
        fail "split of node %d minted ids %d/%d, the event says %d/%d" node (Tree.node_id l)
          (Tree.node_id r) left right;
      Option.iter
        (fun h ->
          let split =
            match decision with Ivan_spectree.Decision.Relu_split relu -> Some relu | Input_split _ -> None
          in
          let h = Analyzer.for_children ~split h in
          Hashtbl.replace t.hints left h;
          Hashtbl.replace t.hints right h)
        hint;
      (* Children inherit the parent's bound as their best-first
         priority until analyzed. *)
      Frontier.push t.frontier ~priority:(Tree.lb n) l;
      Frontier.push t.frontier ~priority:(Tree.lb n) r
  | Trace.Stuck { node } ->
      (* An unverified leaf never leaves the frontier: a stuck run that
         is resumed with more budget must come back to it rather than
         prove the property without it. *)
      let n = current t node in
      Frontier.push t.frontier ~priority:(Tree.lb n) n
  | Trace.Certified { node; _ } -> Option.iter (Hashtbl.replace t.certs node) leaf
  | Trace.Verdict { verdict; counterexample; _ } ->
      let verdict =
        match (verdict, counterexample) with
        | "proved", _ -> Proved
        | "exhausted", _ -> Exhausted
        | "disproved", Some x -> Disproved x
        | v, _ -> fail "malformed verdict %S" v
      in
      t.finished <-
        Some { verdict; tree = t.tree; stats = t.stats; artifact = artifact_of t verdict }
  | Trace.Lp_solved _ | Trace.Retried _ | Trace.Fallback _ | Trace.Absorbed _ -> ()
  | Trace.Pruned _ -> fail "unexpected pruner event"

(* Apply, then observe: the trace sink and, when a journal is attached,
   the step's journal frame. *)
let emit ?hint ?leaf t ev =
  apply ?hint ?leaf t ev;
  Trace.emit t.trace ev;
  if Option.is_some t.journal then t.jbuf <- ev :: t.jbuf

(* Shared constructor behind [create] and journal resume: the frontier
   starts empty and is filled by the caller. *)
let make ~analyzer ~heuristic ~strategy ~trace ~budget ~policy ~certify ~net ~prop ~tree ~stats
    ~steps ~elapsed =
  if Box.dim prop.Prop.input <> Network.input_dim net then
    invalid_arg "Engine.create: property dimension does not match the network";
  let t =
    {
      analyzer;
      heuristic;
      budget;
      trace;
      net;
      prop;
      tree;
      frontier = Frontier.create strategy;
      started = Clock.monotonic () -. elapsed;
      current = None;
      hints = Hashtbl.create 64;
      previous = Analyzer.no_hint;
      certify;
      certs = Hashtbl.create 64;
      journal = None;
      journal_every = default_journal_every;
      jbuf = [];
      jsteps = 0;
      steps;
      stats;
      finished = None;
    }
  in
  Option.iter
    (fun policy ->
      let notify = function
        | Analyzer.Retried { analyzer; attempt; reason } ->
            emit t (Trace.Retried { node = current_id t; analyzer; attempt; reason })
        | Analyzer.Fell_back { analyzer; reason } ->
            emit t (Trace.Fallback { node = current_id t; analyzer; reason })
        | Analyzer.Absorbed { analyzer; reason } ->
            emit t (Trace.Absorbed { node = current_id t; analyzer; reason })
      in
      t.analyzer <- Analyzer.with_fallback ~notify ~policy analyzer)
    policy;
  t

(* ------------------------------------------------------------------ *)
(* Stepping *)

let finish t verdict =
  let counterexample = match verdict with Disproved x -> Some x | Proved | Exhausted -> None in
  emit t
    (Trace.Verdict
       {
         verdict = verdict_label verdict;
         calls = t.stats.analyzer_calls;
         seconds = Clock.monotonic () -. t.started;
         counterexample;
       });
  Option.get t.finished

(* The wall-clock budget is checked centrally, once every
   [check_time_every] steps (including step 0, so a zero budget fires
   before any analyzer call), instead of reading the clock per node.
   [>=] rather than [>]: a 0-second budget must exhaust even when the
   clock has not advanced a full tick since [create]. *)
let out_of_time t =
  t.budget.max_seconds < infinity
  && t.steps mod check_time_every = 0
  && Clock.monotonic () -. t.started >= t.budget.max_seconds

(* Certificate collection: re-check the analyzer's evidence in exact
   arithmetic right now, so the table only ever holds certificates the
   independent checker will accept — a float-drift certificate that
   fails the exact check is counted unavailable, never emitted
   broken. *)
let certify_leaf t node (outcome : Analyzer.outcome) =
  let id = Tree.node_id node in
  let leaf =
    Option.bind outcome.Analyzer.cert (fun evidence ->
        let leaf =
          { Cert.node = id; splits = Cert.splits_fingerprint (Tree.path_decisions node); evidence }
        in
        match Cert.check_leaf ~box:t.prop.Prop.input leaf with Ok () -> Some leaf | Error _ -> None)
  in
  let kind =
    match leaf with
    | None -> "unavailable"
    | Some l -> (
        match l.Cert.evidence.Cert.witness with
        | Lp.Certificate.Dual _ -> "dual"
        | Lp.Certificate.Farkas _ -> "farkas")
  in
  emit ?leaf t (Trace.Certified { node = id; kind })

type status = Running | Finished of run

let step_once t =
  match t.finished with
  | Some run -> Finished run
  | None -> (
      match Frontier.peek t.frontier with
      | None -> Finished (finish t Proved)
      | Some _ when t.stats.analyzer_calls >= t.budget.max_analyzer_calls || out_of_time t ->
          Finished (finish t Exhausted)
      | Some node -> (
          let id = Tree.node_id node in
          let hint = Option.value (Hashtbl.find_opt t.hints id) ~default:t.previous in
          emit t
            (Trace.Dequeued
               {
                 node = id;
                 depth = List.length (Tree.path_decisions node);
                 frontier = Frontier.length t.frontier;
               });
          let box, splits = Tree.subproblem ~root_box:t.prop.Prop.input node in
          let t0 = Clock.monotonic () in
          let outcome =
            (* Last line of defense: even without a resilience policy, a
               non-fatal analyzer exception degrades this node to Unknown
               instead of crashing a run holding a reusable tree. *)
            try t.analyzer.Analyzer.run ~hint t.net ~prop:t.prop ~box ~splits
            with e when not (Analyzer.fatal_exn e) ->
              emit t
                (Trace.Absorbed
                   { node = id; analyzer = t.analyzer.Analyzer.name; reason = Printexc.to_string e });
              Analyzer.unknown
          in
          let seconds = Clock.monotonic () -. t0 in
          Option.iter
            (fun (r : Analyzer.lp_report) ->
              emit t
                (Trace.Lp_solved
                   {
                     node = id;
                     warm_hits = r.warm_hits;
                     warm_misses = r.warm_misses;
                     cold_solves = r.cold_solves;
                     pivots = r.pivots;
                   }))
            outcome.Analyzer.lp;
          emit ~hint:outcome.Analyzer.hint t
            (Trace.Analyzed
               {
                 node = id;
                 status = status_label outcome.Analyzer.status;
                 lb = outcome.Analyzer.lb;
                 seconds;
               });
          match outcome.Analyzer.status with
          | Analyzer.Verified ->
              if t.certify then certify_leaf t node outcome;
              Running
          | Analyzer.Counterexample x -> Finished (finish t (Disproved x))
          | Analyzer.Unknown -> (
              let ctx = { Heuristic.net = t.net; prop = t.prop; box; splits; outcome } in
              match Heuristic.best (t.heuristic.Heuristic.scores ctx) with
              | None ->
                  (* No decision can refine this node further; the
                     analyzer is exact here, so this only happens on
                     numerical failure.  Count and trace it distinctly,
                     then stop — the budget was not the problem. *)
                  emit t (Trace.Stuck { node = id });
                  Finished (finish t Exhausted)
              | Some decision ->
                  let left = Tree.next_id t.tree in
                  (* The children resume from this node's hint. *)
                  emit ~hint:outcome.Analyzer.hint t
                    (Trace.Split { node = id; decision; left; right = left + 1 });
                  Running)))

(* ------------------------------------------------------------------ *)
(* Write-ahead journal.

   Frame protocol (see {!Ivan_resilience.Journal} for the byte layout):
   a Header frame carrying the config fingerprint opens every run; each
   completed engine step appends exactly one Step frame holding the
   step's events as JSONL (atomic: a step is journaled whole or not at
   all); every [journal_every] steps — and always at the terminal step —
   a Checkpoint frame folds the entire prefix into a snapshot of the
   state, bounding recovery replay.  Frames are flushed as they are
   appended, so after a kill the journal is a valid prefix plus at most
   one torn frame, which {!Journal.scan} drops. *)

(* [float_of_string] accepts the "inf"/"-inf"/"nan" spellings %.17g
   produces for non-finite values, so tokens read back unchanged. *)
let float_token v = Printf.sprintf "%.17g" v

let fingerprint ~net ~prop =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Ivan_nn.Serialize.to_string net);
  Buffer.add_char buf '\000';
  let box = prop.Prop.input in
  for i = 0 to Box.dim box - 1 do
    Buffer.add_string buf (float_token (Box.lo_at box i));
    Buffer.add_char buf ' ';
    Buffer.add_string buf (float_token (Box.hi_at box i));
    Buffer.add_char buf '\n'
  done;
  Buffer.add_char buf '\000';
  Array.iter
    (fun c ->
      Buffer.add_string buf (float_token c);
      Buffer.add_char buf ' ')
    prop.Prop.c;
  Buffer.add_string buf (float_token prop.Prop.offset);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The Checkpoint payload: the state the events have folded so far.
   The analyzer, heuristic, network and property are code, not state —
   resume takes them as arguments. *)
let snapshot t =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') buf fmt in
  let s = t.stats in
  let elapsed =
    match t.finished with
    | Some r -> r.stats.elapsed_seconds
    | None -> Clock.monotonic () -. t.started
  in
  line "ivan-checkpoint";
  line "strategy %s" (Frontier.strategy_name (Frontier.strategy t.frontier));
  line "budget %d %s" t.budget.max_analyzer_calls (float_token t.budget.max_seconds);
  line "steps %d" t.steps;
  line "stats %d %d %d %d %s %s %d %d %d %d %d %d %d %d %d %d %d %d" s.analyzer_calls s.branchings
    s.tree_size s.tree_leaves (float_token elapsed) (float_token s.analyzer_seconds) s.max_frontier
    s.max_depth s.heuristic_failures s.retries s.fallback_bounds s.faults_absorbed s.lp_warm_hits
    s.lp_warm_misses s.lp_cold_solves s.lp_pivots s.certs_emitted s.certs_unavailable;
  line "verdict %s"
    (match t.finished with
    | None -> "running"
    | Some { verdict = Disproved x; _ } ->
        String.concat " " ("disproved" :: List.map float_token (Array.to_list x))
    | Some r -> verdict_label r.verdict);
  line "frontier%s"
    (String.concat ""
       (List.map
          (fun (p, n) -> Printf.sprintf " %d %s" (Tree.node_id n) (float_token p))
          (Frontier.elements t.frontier)));
  line "tree";
  Buffer.add_string buf (Tree.to_string t.tree);
  Buffer.contents buf

let compacted_journal t =
  Journal.encode_frame Journal.Header (fingerprint ~net:t.net ~prop:t.prop)
  ^ Journal.encode_frame Journal.Checkpoint (snapshot t)

let fold_journal t =
  Option.iter
    (fun w ->
      Journal.append w Journal.Checkpoint (snapshot t);
      t.jsteps <- 0)
    t.journal

(* Attach a journal sink to an engine.  [fresh_run] appends a Header
   frame unconditionally (a new run in a possibly shared journal);
   otherwise the Header is only written when the sink is empty, so a
   resumed engine continues the journal's current run. *)
let attach_journal t ~fresh_run journal journal_every =
  if journal_every <= 0 then invalid_arg "Engine.create: journal_every must be positive";
  Option.iter
    (fun w ->
      t.journal <- Some w;
      t.journal_every <- journal_every;
      if fresh_run || Journal.appends w = 0 then
        Journal.append w Journal.Header (fingerprint ~net:t.net ~prop:t.prop);
      fold_journal t)
    journal

let flush_step t =
  match (t.journal, t.jbuf) with
  | None, _ | _, [] -> ()
  | Some w, events ->
      t.jbuf <- [];
      Journal.append w Journal.Step (String.concat "\n" (List.rev_map Trace.event_to_json events));
      t.jsteps <- t.jsteps + 1;
      if Option.is_some t.finished || t.jsteps >= t.journal_every then fold_journal t

let step t =
  let r = step_once t in
  flush_step t;
  r

let run t =
  let rec go () = match step t with Finished r -> r | Running -> go () in
  go ()

let cancel t =
  match t.finished with
  | Some r -> r
  | None ->
      let r = finish t Exhausted in
      flush_step t;
      r

let create ~analyzer ~heuristic ?(strategy = Frontier.Fifo) ?(trace = Trace.null)
    ?(budget = default_budget) ?policy ?(certify = false) ?journal
    ?(journal_every = default_journal_every) ?initial_tree ~net ~prop () =
  let tree = match initial_tree with None -> Tree.create () | Some t -> Tree.copy t in
  let stats =
    { Trace.root_stats with tree_size = Tree.size tree; tree_leaves = Tree.num_leaves tree }
  in
  let t =
    make ~analyzer ~heuristic ~strategy ~trace ~budget ~policy ~certify ~net ~prop ~tree ~stats
      ~steps:0 ~elapsed:0.0
  in
  List.iter (fun n -> Frontier.push t.frontier ~priority:(Tree.lb n) n) (Tree.leaves tree);
  attach_journal t ~fresh_run:true journal journal_every;
  t

(* ------------------------------------------------------------------ *)
(* Journal resume: rebuild the state from the newest Checkpoint frame,
   then apply the events of the Step frames after it. *)

(* Parse a {!snapshot} payload into an engine; [Failure] (or a [Scanf]
   exception) on a malformed one. *)
let of_snapshot ~analyzer ~heuristic ~trace ~policy ~certify ~budget ~net ~prop data =
  match String.split_on_char '\n' data with
  | "ivan-checkpoint" :: strategy_l :: budget_l :: steps_l :: stats_l :: verdict_l :: frontier_l
    :: "tree" :: tree_lines ->
      let strategy =
        let s = Scanf.sscanf strategy_l "strategy %s%!" Fun.id in
        match Frontier.strategy_of_string s with Some st -> st | None -> fail "unknown strategy %S" s
      in
      let recorded =
        Scanf.sscanf budget_l "budget %d %s%!" (fun max_analyzer_calls s ->
            { max_analyzer_calls; max_seconds = float_of_string s })
      in
      let stats =
        Scanf.sscanf stats_l "stats %d %d %d %d %s %s %d %d %d %d %d %d %d %d %d %d %d %d%!"
          (fun analyzer_calls branchings tree_size tree_leaves elapsed analyzer_seconds max_frontier
               max_depth heuristic_failures retries fallback_bounds faults_absorbed lp_warm_hits
               lp_warm_misses lp_cold_solves lp_pivots certs_emitted certs_unavailable ->
            {
              Trace.analyzer_calls;
              branchings;
              tree_size;
              tree_leaves;
              elapsed_seconds = float_of_string elapsed;
              analyzer_seconds = float_of_string analyzer_seconds;
              max_frontier;
              max_depth;
              heuristic_failures;
              retries;
              fallback_bounds;
              faults_absorbed;
              lp_warm_hits;
              lp_warm_misses;
              lp_cold_solves;
              lp_pivots;
              certs_emitted;
              certs_unavailable;
            })
      in
      let tree = Tree.of_string (String.concat "\n" tree_lines) in
      let t =
        make ~analyzer ~heuristic ~strategy ~trace
          ~budget:(Option.value budget ~default:recorded)
          ~policy ~certify ~net ~prop ~tree
          (* A running engine keeps its elapsed time in [started]; the
             Verdict event adds it to the stats. *)
          ~stats:{ stats with elapsed_seconds = 0.0 }
          ~steps:(Scanf.sscanf steps_l "steps %d%!" Fun.id)
          ~elapsed:stats.elapsed_seconds
      in
      let nodes = Hashtbl.create 64 in
      Tree.iter_nodes tree (fun n -> Hashtbl.replace nodes (Tree.node_id n) n);
      let rec push_frontier = function
        | [] -> ()
        | id :: prio :: rest ->
            (match Hashtbl.find_opt nodes (int_of_string id) with
            | Some n -> Frontier.push t.frontier ~priority:(float_of_string prio) n
            | None -> fail "frontier references unknown node %s" id);
            push_frontier rest
        | [ tok ] -> fail "dangling frontier token %S" tok
      in
      (match String.split_on_char ' ' frontier_l with
      | "frontier" :: toks -> push_frontier toks
      | _ -> fail "malformed frontier line %S" frontier_l);
      let finish_restored verdict =
        t.finished <- Some { verdict; tree = t.tree; stats; artifact = artifact_of t verdict }
      in
      (match String.split_on_char ' ' verdict_l with
      | [ "verdict"; "running" ] -> ()
      | [ "verdict"; "proved" ] -> finish_restored Proved
      | [ "verdict"; "exhausted" ] -> finish_restored Exhausted
      | "verdict" :: "disproved" :: (_ :: _ as toks) ->
          finish_restored (Disproved (Array.of_list (List.map float_of_string toks)))
      | _ -> fail "malformed verdict line %S" verdict_l);
      t
  | _ -> fail "malformed checkpoint"

type resume_info = {
  replayed_steps : int;
  replayed_calls : int;
  valid_bytes : int;
  dropped_bytes : int;
}

let resume_journal ~analyzer ~heuristic ?(trace = Trace.null) ?(strategy = Frontier.Fifo) ?policy
    ?(certify = false) ?budget ?journal ?(journal_every = default_journal_every) ~net ~prop data =
  let recovery = Journal.scan data in
  match Journal.last_run recovery.Journal.records with
  | [] -> Error "Engine.resume_journal: no valid journal frames"
  | first :: rest -> (
      match
        if first.Journal.kind <> Journal.Header then fail "journal has no run header";
        if first.Journal.payload <> fingerprint ~net ~prop then
          fail "config fingerprint mismatch — the journal was written for a different network or property";
        (* Newest checkpoint wins; only the Step frames after it replay. *)
        let checkpoint, steps_rev =
          List.fold_left
            (fun (ck, steps) r ->
              match r.Journal.kind with
              | Journal.Header -> (ck, steps)
              | Journal.Checkpoint -> (Some r.Journal.payload, [])
              | Journal.Step -> (ck, r.Journal.payload :: steps))
            (None, []) rest
        in
        let t =
          match checkpoint with
          | Some doc ->
              of_snapshot ~analyzer ~heuristic ~trace ~policy ~certify ~budget ~net ~prop doc
          | None ->
              (* Killed before the first Checkpoint frame landed: nothing
                 had happened yet, start fresh. *)
              create ~analyzer ~heuristic ~strategy ~trace ?budget ?policy ~certify ~net ~prop ()
        in
        let calls_before = t.stats.analyzer_calls in
        List.iter
          (fun payload ->
            List.iter
              (fun line -> if String.trim line <> "" then apply t (Trace.event_of_json line))
              (String.split_on_char '\n' payload))
          (List.rev steps_rev);
        (* A budget-exhausted run is the one terminal state worth
           continuing: with a fresh budget and live frontier nodes the
           engine picks the search back up. *)
        (match t.finished with
        | Some { verdict = Exhausted; _ } when budget <> None && not (Frontier.is_empty t.frontier)
          ->
            t.finished <- None
        | _ -> ());
        attach_journal t ~fresh_run:false journal journal_every;
        ( t,
          {
            replayed_steps = List.length steps_rev;
            replayed_calls = t.stats.analyzer_calls - calls_before;
            valid_bytes = recovery.Journal.valid_bytes;
            dropped_bytes = recovery.Journal.dropped_bytes;
          } )
      with
      | result -> Ok result
      | exception (Failure msg | Scanf.Scan_failure msg) -> Error ("Engine.resume_journal: " ^ msg)
      | exception Invalid_argument msg -> Error ("Engine.resume_journal: " ^ msg)
      | exception End_of_file -> Error "Engine.resume_journal: truncated checkpoint")
