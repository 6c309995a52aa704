(* Tests for the pluggable verification engine: a golden regression
   against the original (pre-Engine) BaB loop, frontier ordering,
   explicit stepping/cancellation, trace JSONL round-tripping, and the
   stuck-heuristic accounting. *)

module Vec = Ivan_tensor.Vec
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Network = Ivan_nn.Network
module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Bab = Ivan_bab.Bab
module Engine = Ivan_bab.Engine
module Frontier = Ivan_bab.Frontier
module Trace = Ivan_bab.Trace
module Tree = Ivan_spectree.Tree
module Decision = Ivan_spectree.Decision
module Fault = Ivan_resilience.Fault

let lp = Analyzer.lp_triangle ()

(* ------------------------------------------------------------------ *)
(* Golden regression: a verbatim copy of the seed implementation's BaB
   loop (the recursive Queue-based [Bab.verify] this engine replaced).
   The refactored verifier under the default Fifo strategy must produce
   the identical verdict, analyzer-call count, branching count, and tree
   shape on every instance. *)

type seed_verdict = Seed_proved | Seed_disproved of Vec.t | Seed_exhausted

let seed_verify ~analyzer ~heuristic ?(budget = Bab.default_budget) ?initial_tree ~net ~prop () =
  let tree = match initial_tree with None -> Tree.create () | Some t -> Tree.copy t in
  let calls = ref 0 in
  let branchings = ref 0 in
  let active = Queue.create () in
  List.iter (fun n -> Queue.add n active) (Tree.leaves tree);
  let out_of_budget () = !calls >= budget.Bab.max_analyzer_calls in
  let rec loop () =
    if Queue.is_empty active then Seed_proved
    else if out_of_budget () then Seed_exhausted
    else begin
      let node = Queue.pop active in
      let box, splits = Tree.subproblem ~root_box:prop.Prop.input node in
      incr calls;
      let outcome = analyzer.Analyzer.run net ~prop ~box ~splits in
      Tree.set_lb node outcome.Analyzer.lb;
      match outcome.Analyzer.status with
      | Analyzer.Verified -> loop ()
      | Analyzer.Counterexample x -> Seed_disproved x
      | Analyzer.Unknown -> (
          let ctx = { Heuristic.net; prop; box; splits; outcome } in
          match Heuristic.best (heuristic.Heuristic.scores ctx) with
          | None -> Seed_exhausted
          | Some d ->
              let left, right = Tree.split tree node d in
              incr branchings;
              Queue.add left active;
              Queue.add right active;
              loop ())
    end
  in
  let verdict = loop () in
  (verdict, tree, !calls, !branchings)

let check_matches_seed ?budget ?initial_tree ~analyzer ~heuristic ~net ~prop label =
  let seed_verdict, seed_tree, seed_calls, seed_branchings =
    seed_verify ~analyzer ~heuristic ?budget ?initial_tree ~net ~prop ()
  in
  let run = Bab.verify ~analyzer ~heuristic ?budget ?initial_tree ~net ~prop () in
  (match (seed_verdict, run.Bab.verdict) with
  | Seed_proved, Bab.Proved | Seed_exhausted, Bab.Exhausted -> ()
  | Seed_disproved x, Bab.Disproved y ->
      Alcotest.(check bool) (label ^ ": same counterexample") true (x = y)
  | _ -> Alcotest.failf "%s: verdict differs from the seed implementation" label);
  Alcotest.(check int) (label ^ ": analyzer calls") seed_calls run.Bab.stats.Bab.analyzer_calls;
  Alcotest.(check int) (label ^ ": branchings") seed_branchings run.Bab.stats.Bab.branchings;
  Alcotest.(check string) (label ^ ": tree shape") (Tree.to_string seed_tree)
    (Tree.to_string run.Bab.tree)

let test_golden_fifo_matches_seed () =
  let net = Fixtures.paper_net () in
  List.iter
    (fun offset ->
      let prop = Fixtures.paper_prop_with_offset offset in
      check_matches_seed ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~net ~prop
        (Printf.sprintf "offset %g" offset))
    [ 1.3; 1.45; 1.55; 1.6; 1.7; 2.0 ]

let test_golden_call_budget () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  List.iter
    (fun max_analyzer_calls ->
      let budget = { Bab.max_analyzer_calls; max_seconds = infinity } in
      check_matches_seed ~budget ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~net ~prop
        (Printf.sprintf "budget %d" max_analyzer_calls))
    [ 1; 2; 3; 5 ]

let test_golden_initial_tree_reuse () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let first = Bab.verify ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~net ~prop () in
  check_matches_seed ~initial_tree:first.Bab.tree ~analyzer:lp ~heuristic:Heuristic.zono_coeff
    ~net ~prop "reused tree"

let test_golden_input_splitting () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  check_matches_seed ~analyzer:(Analyzer.zonotope ()) ~heuristic:Heuristic.input_smear ~net ~prop
    "input splitting"

(* ------------------------------------------------------------------ *)
(* Frontier ordering *)

let drain f =
  let rec go acc = match Frontier.pop f with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let test_frontier_fifo_order () =
  let f = Frontier.create Frontier.Fifo in
  List.iter (fun i -> Frontier.push f ~priority:(float_of_int (-i)) i) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "fifo ignores priority" [ 1; 2; 3; 4 ] (drain f)

let test_frontier_lifo_order () =
  let f = Frontier.create Frontier.Lifo in
  List.iter (fun i -> Frontier.push f ~priority:0.0 i) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "lifo reverses" [ 4; 3; 2; 1 ] (drain f)

let test_frontier_best_order () =
  let f = Frontier.create Frontier.Best_first in
  List.iter
    (fun (p, x) -> Frontier.push f ~priority:p x)
    [ (3.0, 30); (1.0, 10); (2.0, 20); (0.5, 5) ];
  Alcotest.(check (list int)) "lowest bound first" [ 5; 10; 20; 30 ] (drain f)

let test_frontier_best_ties_and_nan () =
  let f = Frontier.create Frontier.Best_first in
  List.iter
    (fun (p, x) -> Frontier.push f ~priority:p x)
    [ (1.0, 1); (1.0, 2); (nan, 99); (1.0, 3) ];
  (* NaN normalizes to -inf (most urgent); ties pop in insertion order. *)
  Alcotest.(check (list int)) "nan first, then insertion order" [ 99; 1; 2; 3 ] (drain f);
  Alcotest.(check bool) "empty after drain" true (Frontier.is_empty f)

let test_frontier_length () =
  let f = Frontier.create Frontier.Best_first in
  Alcotest.(check int) "empty" 0 (Frontier.length f);
  Frontier.push f ~priority:1.0 1;
  Frontier.push f ~priority:2.0 2;
  Alcotest.(check int) "two" 2 (Frontier.length f);
  ignore (Frontier.pop f);
  Alcotest.(check int) "one" 1 (Frontier.length f)

let test_strategy_of_string () =
  List.iter
    (fun (s, expected) ->
      Alcotest.(check bool) s true (Frontier.strategy_of_string s = expected))
    [
      ("fifo", Some Frontier.Fifo);
      ("BFS", Some Frontier.Fifo);
      ("dfs", Some Frontier.Lifo);
      ("best-first", Some Frontier.Best_first);
      ("nonsense", None);
    ]

(* All strategies remain complete verifiers: same verdict, possibly
   different traversal. *)
let test_all_strategies_complete () =
  let net = Fixtures.paper_net () in
  List.iter
    (fun offset ->
      let prop = Fixtures.paper_prop_with_offset offset in
      List.iter
        (fun strategy ->
          let run =
            Bab.verify ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~strategy ~net ~prop ()
          in
          match run.Bab.verdict with
          | Bab.Proved ->
              Alcotest.(check bool)
                (Printf.sprintf "%s offset %g proved" (Frontier.strategy_name strategy) offset)
                true (offset > 1.5)
          | Bab.Disproved x ->
              Alcotest.(check bool) "genuine CE" true (Analyzer.check_concrete net ~prop x);
              Alcotest.(check bool)
                (Printf.sprintf "%s offset %g disproved" (Frontier.strategy_name strategy) offset)
                true (offset < 1.5)
          | Bab.Exhausted -> Alcotest.failf "offset %g exhausted" offset)
        Frontier.all_strategies)
    [ 1.3; 1.6 ]

(* ------------------------------------------------------------------ *)
(* Explicit stepping *)

let test_step_loop_equals_run () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let reference = Bab.verify ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~net ~prop () in
  let engine = Engine.create ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~net ~prop () in
  let steps = ref 0 in
  let rec go () =
    match Engine.step engine with
    | Engine.Running ->
        incr steps;
        go ()
    | Engine.Finished run -> run
  in
  let run = go () in
  Alcotest.(check bool) "proved" true (run.Bab.verdict = Bab.Proved);
  (* Every analyzer call is one Running step; the final step only
     observes the empty frontier. *)
  Alcotest.(check int) "one step per analyzer call" run.Bab.stats.Bab.analyzer_calls !steps;
  Alcotest.(check int) "same calls as Bab.verify" reference.Bab.stats.Bab.analyzer_calls
    run.Bab.stats.Bab.analyzer_calls;
  Alcotest.(check string) "same tree" (Tree.to_string reference.Bab.tree)
    (Tree.to_string run.Bab.tree);
  (* Idempotent after completion. *)
  (match Engine.step engine with
  | Engine.Finished again ->
      Alcotest.(check int) "stable calls" run.Bab.stats.Bab.analyzer_calls
        again.Bab.stats.Bab.analyzer_calls
  | Engine.Running -> Alcotest.fail "engine resumed after finishing");
  match Engine.finished engine with
  | Some _ -> ()
  | None -> Alcotest.fail "finished engine reports None"

let test_cancel_mid_run () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let engine = Engine.create ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~net ~prop () in
  (match Engine.step engine with
  | Engine.Running -> ()
  | Engine.Finished _ -> Alcotest.fail "tight instance finished in one step");
  let run = Engine.cancel engine in
  Alcotest.(check bool) "cancelled run is Exhausted" true (run.Bab.verdict = Bab.Exhausted);
  Alcotest.(check int) "one analyzer call happened" 1 run.Bab.stats.Bab.analyzer_calls;
  (* Cancellation is terminal and stable. *)
  match Engine.step engine with
  | Engine.Finished again ->
      Alcotest.(check bool) "still exhausted" true (again.Bab.verdict = Bab.Exhausted)
  | Engine.Running -> Alcotest.fail "engine resumed after cancel"

(* A sound-but-useless analyzer plus a bone-dry heuristic: the engine
   must report the distinct heuristic-failure accounting, not plain
   budget exhaustion. *)
let test_stuck_heuristic_accounted () =
  let stuck_analyzer =
    {
      Analyzer.name = "always-unknown";
      run = (fun ?hint:_ _net ~prop:_ ~box:_ ~splits:_ -> { Analyzer.unknown with lb = -1.0 });
    }
  in
  let no_decisions = { Heuristic.name = "none"; scores = (fun _ -> []) } in
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let ring = Trace.ring ~capacity:16 in
  let run =
    Bab.verify ~analyzer:stuck_analyzer ~heuristic:no_decisions ~trace:ring ~net ~prop ()
  in
  Alcotest.(check bool) "verdict stays Exhausted" true (run.Bab.verdict = Bab.Exhausted);
  Alcotest.(check int) "one analyzer call" 1 run.Bab.stats.Bab.analyzer_calls;
  Alcotest.(check int) "heuristic failure counted" 1 run.Bab.stats.Bab.heuristic_failures;
  let stuck_events =
    List.filter (function Trace.Stuck _ -> true | _ -> false) (Trace.ring_contents ring)
  in
  Alcotest.(check int) "Stuck event emitted" 1 (List.length stuck_events)

(* ------------------------------------------------------------------ *)
(* Trace serialization *)

let sample_events =
  [
    Trace.Dequeued { node = 0; depth = 0; frontier = 1 };
    Trace.Analyzed { node = 0; status = "unknown"; lb = -0.12345678901234567; seconds = 0.0625 };
    Trace.Split
      {
        node = 0;
        decision = Decision.Relu_split (Ivan_nn.Relu_id.make ~layer:1 ~index:3);
        left = 1;
        right = 2;
      };
    Trace.Split { node = 1; decision = Decision.Input_split 0; left = 3; right = 4 };
    Trace.Pruned { node = 2 };
    Trace.Stuck { node = 3 };
    Trace.Retried { node = 4; analyzer = "lp-triangle"; attempt = 2; reason = "Lp.Iteration_limit" };
    Trace.Fallback { node = 4; analyzer = "interval"; reason = "degraded after retries" };
    Trace.Absorbed { node = 5; analyzer = "lp-triangle"; reason = "injected \"fault\"" };
    Trace.Analyzed { node = 1; status = "verified"; lb = neg_infinity; seconds = nan };
    Trace.Verdict { verdict = "proved"; calls = 7; seconds = 1.5; counterexample = None };
    Trace.Verdict
      {
        verdict = "disproved";
        calls = 3;
        seconds = 0.25;
        counterexample = Some (Vec.of_list [ 0.49; 1.0 /. 3.0 ]);
      };
  ]

let test_event_json_roundtrip () =
  List.iter
    (fun e ->
      let json = Trace.event_to_json e in
      let back = Trace.event_of_json json in
      (* Structural equality, except NaN fields compare by being NaN. *)
      match (e, back) with
      | Trace.Analyzed a, Trace.Analyzed b when Float.is_nan a.seconds ->
          Alcotest.(check bool) json true
            (a.node = b.node && a.status = b.status && a.lb = b.lb && Float.is_nan b.seconds)
      | _ -> Alcotest.(check bool) json true (e = back))
    sample_events

(* Every counter of a run's stats, floats bit-exact. *)
let stats_fields (s : Bab.stats) =
  let i = string_of_int and f = Printf.sprintf "%h" in
  [
    ("analyzer_calls", i s.Bab.analyzer_calls);
    ("branchings", i s.Bab.branchings);
    ("tree_size", i s.Bab.tree_size);
    ("tree_leaves", i s.Bab.tree_leaves);
    ("analyzer_seconds", f s.Bab.analyzer_seconds);
    ("max_frontier", i s.Bab.max_frontier);
    ("max_depth", i s.Bab.max_depth);
    ("heuristic_failures", i s.Bab.heuristic_failures);
    ("retries", i s.Bab.retries);
    ("fallback_bounds", i s.Bab.fallback_bounds);
    ("faults_absorbed", i s.Bab.faults_absorbed);
    ("lp_warm_hits", i s.Bab.lp_warm_hits);
    ("lp_warm_misses", i s.Bab.lp_warm_misses);
    ("lp_cold_solves", i s.Bab.lp_cold_solves);
    ("lp_pivots", i s.Bab.lp_pivots);
    ("certs_emitted", i s.Bab.certs_emitted);
    ("certs_unavailable", i s.Bab.certs_unavailable);
  ]

(* A run's stats are the fold of its own JSONL trace — on every counter
   but the elapsed time — across strategies, certification and injected
   faults. *)
let test_jsonl_file_roundtrip_and_aggregate () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let check_trace label verify =
    let path = Filename.temp_file "ivan_trace" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
      (fun () ->
        let run = Trace.with_jsonl_file path verify in
        let events = Trace.read_jsonl path in
        Alcotest.(check (list (pair string string)))
          (label ^ ": stats are the fold of the trace")
          (stats_fields run.Bab.stats)
          (stats_fields (Trace.aggregate events));
        (match List.rev events with
        | Trace.Verdict { verdict; _ } :: _ ->
            Alcotest.(check string) (label ^ ": verdict recorded") "proved" verdict
        | _ -> Alcotest.failf "%s: trace does not end in a verdict" label);
        (* Each line parses back to the event that produced it. *)
        List.iter
          (fun e ->
            Alcotest.(check bool) "re-encoding stable" true
              (Trace.event_to_json (Trace.event_of_json (Trace.event_to_json e))
              = Trace.event_to_json e))
          events;
        run)
  in
  List.iter
    (fun strategy ->
      ignore
        (check_trace (Frontier.strategy_name strategy) (fun trace ->
             Bab.verify ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~strategy ~trace ~net ~prop ())))
    Frontier.all_strategies;
  let certified =
    check_trace "certify" (fun trace ->
        Bab.verify
          ~analyzer:(Analyzer.lp_triangle ~certify:true ())
          ~heuristic:Heuristic.zono_coeff ~certify:true ~trace ~net ~prop ())
  in
  Alcotest.(check bool) "certify: certificates counted" true
    (certified.Bab.stats.Bab.certs_emitted > 0);
  let plan = Fault.plan ~lp_rate:0.2 ~analyzer_rate:0.3 ~seed:11 () in
  let faulted =
    check_trace "faults" (fun trace ->
        Fault.with_lp_faults plan (fun () ->
            Bab.verify ~analyzer:(Fault.wrap_analyzer plan lp) ~heuristic:Heuristic.zono_coeff
              ~policy:Analyzer.default_policy ~trace ~net ~prop ()))
  in
  Alcotest.(check bool) "faults: some absorbed" true
    (faulted.Bab.stats.Bab.faults_absorbed > 0)

let test_ring_capacity () =
  let ring = Trace.ring ~capacity:3 in
  List.iter (fun i -> Trace.emit ring (Trace.Pruned { node = i })) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "keeps the most recent"
    true
    (Trace.ring_contents ring
    = [ Trace.Pruned { node = 3 }; Trace.Pruned { node = 4 }; Trace.Pruned { node = 5 } ])

let test_tee_and_hook () =
  let seen = ref [] in
  let sink = Trace.tee (Trace.hook (fun e -> seen := e :: !seen)) (Trace.ring ~capacity:4) in
  Trace.emit sink (Trace.Pruned { node = 7 });
  Alcotest.(check int) "hook fired" 1 (List.length !seen)

(* Engine stats vs trace aggregate under the non-default strategy too:
   the equality is by construction, not an accident of Fifo. *)
let test_best_first_trace_consistent () =
  let net = Fixtures.paper_net () in
  let prop = Fixtures.paper_prop_with_offset 1.6 in
  let ring = Trace.ring ~capacity:10_000 in
  let run =
    Bab.verify ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~strategy:Frontier.Best_first
      ~trace:ring ~net ~prop ()
  in
  Alcotest.(check bool) "proved" true (run.Bab.verdict = Bab.Proved);
  let agg = Trace.aggregate (Trace.ring_contents ring) in
  Alcotest.(check int) "calls" run.Bab.stats.Bab.analyzer_calls agg.Trace.analyzer_calls;
  Alcotest.(check int) "max frontier" run.Bab.stats.Bab.max_frontier agg.Trace.max_frontier;
  Alcotest.(check int) "max depth" run.Bab.stats.Bab.max_depth agg.Trace.max_depth

(* ------------------------------------------------------------------ *)
(* Incremental node analysis: hints only save work *)

(* A random three-hidden-layer ReLU net and a tight property on it, so
   runs branch on ReLUs of several layers. *)
let branching_instance seed =
  let net = Fixtures.random_net ~seed ~dims:[ 3; 8; 8; 8; 1 ] in
  let input = Box.make ~lo:(Vec.zeros 3) ~hi:(Vec.create 3 1.0) in
  let probe = Prop.make ~name:"probe" ~input ~c:(Vec.of_list [ 1.0 ]) ~offset:0.0 in
  let offset = 0.02 -. Fixtures.approx_min_margin ~seed net probe in
  (net, Prop.make ~name:"tight" ~input ~c:(Vec.of_list [ 1.0 ]) ~offset)

(* [lp] with the domain prefixes of every hint dropped: each node's
   DeepPoly and Zonotope passes start from scratch. *)
let from_scratch_lp =
  {
    lp with
    Analyzer.run =
      (fun ?(hint = Analyzer.no_hint) -> lp.Analyzer.run ~hint:{ hint with deeppoly = None; zonotope = None });
  }

(* [lp], counting into [resumable] the calls offered a DeepPoly donor. *)
let counting_lp resumable =
  {
    lp with
    Analyzer.run =
      (fun ?(hint = Analyzer.no_hint) ->
        if Option.is_some hint.Analyzer.deeppoly then incr resumable;
        lp.Analyzer.run ~hint);
  }

let lb_bits run =
  let acc = ref [] in
  Tree.iter_nodes run.Bab.tree (fun n -> acc := Int64.bits_of_float (Tree.lb n) :: !acc);
  List.rev !acc

let untimed (s : Bab.stats) = { s with Bab.elapsed_seconds = 0.0; analyzer_seconds = 0.0 }

let check_same_run label (a : Bab.run) (b : Bab.run) =
  Alcotest.(check bool) (label ^ ": verdict") true (a.Bab.verdict = b.Bab.verdict);
  Alcotest.(check string) (label ^ ": tree") (Tree.to_string a.Bab.tree) (Tree.to_string b.Bab.tree);
  Alcotest.(check (list int64)) (label ^ ": lb bits") (lb_bits a) (lb_bits b);
  Alcotest.(check bool) (label ^ ": stats") true (untimed a.Bab.stats = untimed b.Bab.stats)

let test_prefix_reuse_changes_nothing () =
  List.iter
    (fun seed ->
      let net, prop = branching_instance seed in
      let budget = { Bab.max_analyzer_calls = 150; max_seconds = infinity } in
      let verify ?initial_tree ~analyzer ~strategy () =
        Bab.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~strategy ~budget ?initial_tree ~net ~prop ()
      in
      let resumable = ref 0 in
      let first = ref None in
      List.iter
        (fun strategy ->
          let label = Printf.sprintf "seed %d %s" seed (Frontier.strategy_name strategy) in
          let scratch = verify ~analyzer:from_scratch_lp ~strategy () in
          let resumed = verify ~analyzer:(counting_lp resumable) ~strategy () in
          Alcotest.(check bool) (label ^ ": branches") true (scratch.Bab.stats.Bab.branchings >= 3);
          check_same_run label scratch resumed;
          if Option.is_none !first then first := Some resumed)
        Frontier.all_strategies;
      (* IVAN: the updated network re-verified from the original run's
         tree, whose leaves have no analyzed parent in this run. *)
      let updated = Network.map_weights (fun w -> w *. 1.01) net in
      let initial_tree = (Option.get !first).Bab.tree in
      let reverify analyzer =
        Bab.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~budget ~initial_tree ~net:updated ~prop ()
      in
      check_same_run (Printf.sprintf "seed %d initial tree" seed) (reverify from_scratch_lp)
        (reverify (counting_lp resumable));
      Alcotest.(check bool) (Printf.sprintf "seed %d resumed nodes" seed) true (!resumable > 0))
    [ 3; 11; 29 ]

(* A journal carries no hints, so a resumed run restarts its domain
   analyses from the previous node's (or from scratch) and must still
   end on the uninterrupted run's tree and bounds.  LP bases are dropped
   on both sides: a cold and a warm solve of the same LP may differ in
   the last bits of the objective. *)
let test_journal_resume_without_prefixes () =
  let net, prop = branching_instance 11 in
  let budget = { Bab.max_analyzer_calls = 150; max_seconds = infinity } in
  let lp = Fixtures.cold lp in
  let create () = Engine.create ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~budget ~net ~prop () in
  let golden = Engine.run (create ()) in
  let engine = create () in
  for _ = 1 to golden.Bab.stats.Bab.analyzer_calls / 2 do
    ignore (Engine.step engine)
  done;
  match
    Engine.resume_journal ~analyzer:lp ~heuristic:Heuristic.zono_coeff ~net ~prop
      (Engine.compacted_journal engine)
  with
  | Error msg -> Alcotest.failf "resume failed: %s" msg
  | Ok (resumed, _) ->
      let run = Engine.run resumed in
      Alcotest.(check bool) "verdict" true (golden.Bab.verdict = run.Bab.verdict);
      Alcotest.(check string) "tree" (Tree.to_string golden.Bab.tree) (Tree.to_string run.Bab.tree);
      Alcotest.(check (list int64)) "lb bits" (lb_bits golden) (lb_bits run)

let suite =
  [
    ("golden: fifo matches seed loop", `Quick, test_golden_fifo_matches_seed);
    ("golden: call budgets match seed", `Quick, test_golden_call_budget);
    ("golden: initial-tree reuse matches seed", `Quick, test_golden_initial_tree_reuse);
    ("golden: input splitting matches seed", `Quick, test_golden_input_splitting);
    ("frontier fifo order", `Quick, test_frontier_fifo_order);
    ("frontier lifo order", `Quick, test_frontier_lifo_order);
    ("frontier best order", `Quick, test_frontier_best_order);
    ("frontier ties and nan", `Quick, test_frontier_best_ties_and_nan);
    ("frontier length", `Quick, test_frontier_length);
    ("strategy of string", `Quick, test_strategy_of_string);
    ("all strategies complete", `Quick, test_all_strategies_complete);
    ("step loop equals run", `Quick, test_step_loop_equals_run);
    ("cancel mid-run", `Quick, test_cancel_mid_run);
    ("stuck heuristic accounted", `Quick, test_stuck_heuristic_accounted);
    ("event json roundtrip", `Quick, test_event_json_roundtrip);
    ("jsonl file roundtrip + aggregate", `Quick, test_jsonl_file_roundtrip_and_aggregate);
    ("ring capacity", `Quick, test_ring_capacity);
    ("tee and hook", `Quick, test_tee_and_hook);
    ("best-first trace consistent", `Quick, test_best_first_trace_consistent);
    ("prefix reuse changes nothing", `Quick, test_prefix_reuse_changes_nothing);
    ("journal resume without prefixes", `Quick, test_journal_resume_without_prefixes);
  ]
