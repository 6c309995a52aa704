(* Benchmark harness.

   Two parts:
   1. The paper reproduction: every table and figure of the evaluation,
      regenerated by the experiment drivers (the bulk of the output).
   2. Bechamel micro-benchmarks: one [Test.make] per table/figure id,
      timing the representative kernel behind that experiment.

   Usage:  dune exec bench/main.exe -- [quick|full] [--no-micro] [-j N]
                                       [--strategy fifo|lifo|best] [--lp-only]
                                       [--certify] [--journal]
   Default scale is [full], sequential, fifo frontier.  [--lp-only],
   [--certify] and [--journal] skip the paper experiments and
   micro-benchmarks and run just one A/B suite (see [run_suite]): cold
   vs. warm-started node LPs (BENCH_lp.json), certified vs. plain runs
   with the exact check of every artifact (BENCH_cert.json), and
   journaled vs. plain runs (BENCH_journal.json; acceptance bar:
   geomean <= 1.15x).  The program exits 1 when any suite reports a
   mismatch or a rejected artifact. *)

module Vec = Ivan_tensor.Vec
module Rng = Ivan_tensor.Rng
module Quant = Ivan_nn.Quant
module Network = Ivan_nn.Network
module Splits = Ivan_domains.Splits
module Zonotope = Ivan_domains.Zonotope
module Deeppoly = Ivan_domains.Deeppoly
module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Bab = Ivan_bab.Bab
module Ivan = Ivan_core.Ivan
module Zoo = Ivan_data.Zoo
module Experiments = Ivan_harness.Experiments
module Workload = Ivan_harness.Workload
module Report = Ivan_harness.Report

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks *)

(* Shared fixture: the fcn-mnist model, its hardest sampled robustness
   property, and the proof tree from verifying it. *)
type fixture = {
  net : Network.t;
  updated : Network.t;
  prop : Ivan_spec.Prop.t;
  original : Bab.run;
  analyzer : Analyzer.t;
}

let make_fixture () =
  let spec = Zoo.fcn_mnist in
  let net = Zoo.load_or_train spec in
  let updated = Quant.network Quant.Int16 net in
  let instances = Workload.robustness_instances ~spec ~net ~count:10 in
  let analyzer = Analyzer.lp_triangle () in
  let budget = { Bab.max_analyzer_calls = 400; max_seconds = 30.0 } in
  (* Pick the instance with the largest proof tree: the hard case the
     paper's speedups come from. *)
  let best = ref None in
  List.iter
    (fun (inst : Workload.instance) ->
      let run =
        Bab.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~budget ~net
          ~prop:inst.Workload.prop ()
      in
      match !best with
      | Some (_, r) when r.Bab.stats.Bab.tree_size >= run.Bab.stats.Bab.tree_size -> ()
      | Some _ | None -> best := Some (inst.Workload.prop, run))
    instances;
  match !best with
  | None -> failwith "bench fixture: no instances"
  | Some (prop, original) -> { net; updated; prop; original; analyzer }

let micro_tests fx =
  let open Bechamel in
  let budget = { Bab.max_analyzer_calls = 400; max_seconds = 30.0 } in
  [
    (* T1: the model zoo's core primitive: a forward pass. *)
    Test.make ~name:"table1/forward-pass"
      (Staged.stage (fun () ->
           ignore
             (Network.forward fx.net (Ivan_spec.Box.center fx.prop.Ivan_spec.Prop.input))));
    (* F6: one non-incremental LP-BaB bounding call.  Calls hand on
       the property's LP encoding and nothing else, so each still runs
       DeepPoly, Zonotope and a cold LP solve. *)
    (let hint = ref Analyzer.no_hint in
     Test.make ~name:"fig6/lp-analyzer-call"
       (Staged.stage (fun () ->
            let o =
              fx.analyzer.Analyzer.run ~hint:!hint fx.net ~prop:fx.prop
                ~box:fx.prop.Ivan_spec.Prop.input ~splits:Splits.empty
            in
            hint := { Analyzer.no_hint with encoding = o.Analyzer.hint.Analyzer.encoding })));
    (* F7: DeepPoly bound pass. *)
    Test.make ~name:"fig7/deeppoly-pass"
      (Staged.stage (fun () ->
           ignore
             (Deeppoly.analyze fx.net ~box:fx.prop.Ivan_spec.Prop.input ~splits:Splits.empty)));
    (* T2: full incremental verification (reuse+reorder+prune). *)
    Test.make ~name:"table2/ivan-incremental"
      (Staged.stage (fun () ->
           ignore
             (Ivan.verify_updated ~analyzer:fx.analyzer ~heuristic:Heuristic.zono_coeff
                ~config:{ Ivan.default_config with budget }
                ~original_run:fx.original ~updated:fx.updated ~prop:fx.prop)));
    (* F8: H_delta construction from the observed tree. *)
    Test.make ~name:"fig8/hdelta-build"
      (Staged.stage (fun () ->
           let observed = Ivan_core.Effectiveness.observe fx.original.Bab.tree in
           ignore
             (Ivan_core.Hdelta.make ~base:Heuristic.zono_coeff ~observed ~alpha:0.25 ~theta:0.01)));
    (* F9: a zonotope analyzer call (the ACAS bounding step). *)
    Test.make ~name:"fig9/zonotope-call"
      (Staged.stage (fun () ->
           ignore
             (Zonotope.analyze fx.net ~box:fx.prop.Ivan_spec.Prop.input ~splits:Splits.empty)));
    (* T3: the random-perturbation update generator. *)
    Test.make ~name:"table3/perturb-network"
      (Staged.stage
         (let rng = Rng.create 1 in
          fun () -> ignore (Ivan_nn.Perturb.random_relative ~rng ~fraction:0.02 fx.net)));
    (* T4: specification-tree pruning (Algorithm 4). *)
    Test.make ~name:"table4/prune-tree"
      (Staged.stage (fun () -> ignore (Ivan_core.Prune.prune ~theta:0.01 fx.original.Bab.tree)));
    (* TH4: the Theorem-4 delta bound. *)
    Test.make ~name:"theorem4/delta-bound"
      (Staged.stage (fun () ->
           ignore
             (Ivan_core.Theory.delta_bound ~analyzer:fx.analyzer fx.net ~prop:fx.prop
                fx.original.Bab.tree)));
  ]

(* ------------------------------------------------------------------ *)
(* Incremental LP: cold vs. warm-started node solves *)

module Lp = Ivan_lp.Lp

(* Micro fixture: a dense random LP re-solved after a small bound nudge
   — cold (full Phase-1 restart) vs. warm (re-priced from the optimal
   basis of the unperturbed problem), the exact situation of a BaB child
   node re-solving its parent's LP. *)
let lp_micro_tests () =
  let open Bechamel in
  let n = 60 and rows = 45 in
  let rng = Rng.create 20230807 in
  let p = Lp.create n in
  Lp.set_objective p (Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0));
  for j = 0 to n - 1 do
    Lp.set_bounds p j 0.0 (1.0 +. Rng.float rng 1.0)
  done;
  let idx = Array.init n Fun.id in
  for _ = 1 to rows do
    let cf = Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0) in
    ignore (Lp.add_row p idx cf Lp.Le (Rng.uniform rng 1.0 (float_of_int n /. 4.0)))
  done;
  (match Lp.solve p with
  | Lp.Optimal _ -> ()
  | Lp.Infeasible | Lp.Unbounded -> failwith "lp micro fixture: base LP not optimal");
  let basis =
    match Lp.basis p with Some b -> b | None -> failwith "lp micro fixture: no basis captured"
  in
  let tick = ref 0 in
  let nudge () =
    (* The same deterministic bound nudge before every measured solve,
       so the cold and warm tests price identical problem sequences. *)
    incr tick;
    Lp.set_bounds p (!tick mod n) 0.0 (1.0 +. (0.001 *. float_of_int (1 + (!tick mod 7))))
  in
  [
    Test.make ~name:"lp/cold-resolve"
      (Staged.stage (fun () ->
           nudge ();
           ignore (Lp.solve p)));
    Test.make ~name:"lp/warm-resolve"
      (Staged.stage (fun () ->
           nudge ();
           ignore (Lp.solve_from p basis)));
  ]

(* ------------------------------------------------------------------ *)
(* A/B suites: one interleaved runner, three variant pairs

   Each suite verifies the fcn-mnist robustness instances under two
   variants of the same stack.  Per instance, each variant runs once
   untimed (warm-up: page faults, heap growth),
   then [reps] timed repetitions alternate which variant goes first, so
   neither side systematically pays first-touch costs.  The suite
   reports median, p10 and p90 seconds per variant and the ratio of the
   first variant's median to the second's.  Every sample must pass the
   suite's identity check against the first warm-up run. *)

module Cert = Ivan_cert.Cert
module Journal = Ivan_resilience.Journal

let reps = 5

let budget = { Bab.max_analyzer_calls = 400; max_seconds = 30.0 }

(* One execution of a variant: the run, the seconds its verification
   took, and its counters. *)
type sample = { run : Bab.run; seconds : float; counters : (string * float) list }

type suite = {
  suite : string;  (* written to BENCH_<suite>.json *)
  quick_count : int;  (* instances at quick scale; 24 at full scale *)
  variants : (string * (Ivan_spec.Prop.t -> sample)) * (string * (Ivan_spec.Prop.t -> sample));
      (* (a, b): an instance's ratio is median a / median b *)
  identical : sample -> sample -> bool;
  bound : float option;  (* acceptance bar on geomean_ratio *)
}

(* Verify and time one run; [extra] adds counters read off the run. *)
let measure ?journal ?(certify = false) ?(extra = fun _ -> []) analyzer net prop =
  let run, seconds =
    Ivan_clock.Clock.timed (fun () ->
        Bab.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~budget ~certify ?journal ~net ~prop
          ())
  in
  let st = run.Bab.stats in
  let counters =
    ("tree_size", float_of_int st.Bab.tree_size)
    :: ("analyzer_calls", float_of_int st.Bab.analyzer_calls)
    :: extra run
  in
  { run; seconds; counters }

let same_run a b =
  a.run.Bab.verdict = b.run.Bab.verdict
  && a.run.Bab.stats.Bab.tree_size = b.run.Bab.stats.Bab.tree_size
  && a.run.Bab.stats.Bab.analyzer_calls = b.run.Bab.stats.Bab.analyzer_calls

let lp_counters (r : Bab.run) =
  let st = r.Bab.stats in
  List.map
    (fun (k, v) -> (k, float_of_int v))
    [
      ("lp_pivots", st.Bab.lp_pivots);
      ("lp_warm_hits", st.Bab.lp_warm_hits);
      ("lp_warm_misses", st.Bab.lp_warm_misses);
      ("lp_cold_solves", st.Bab.lp_cold_solves);
    ]

(* Only the verification is timed; the independent exact check of the
   artifact is a counter. *)
let certified net prop =
  let s = measure ~certify:true (Analyzer.lp_triangle ~certify:true ()) net prop in
  let st = s.run.Bab.stats in
  let check_s, bytes, rejected =
    match s.run.Bab.artifact with
    | None -> (0.0, 0, false)
    | Some artifact ->
        let result, secs = Ivan_clock.Clock.timed (fun () -> Cert.check_artifact artifact) in
        (secs, String.length (Cert.Artifact.to_string artifact), Result.is_error result)
  in
  let extra =
    [
      ("certs_emitted", float_of_int st.Bab.certs_emitted);
      ("certs_unavailable", float_of_int st.Bab.certs_unavailable);
      ("check_s", check_s);
      ("artifact_bytes", float_of_int bytes);
      ("artifacts_rejected", if rejected then 1.0 else 0.0);
    ]
  in
  { s with counters = s.counters @ extra }

(* A flushed Step frame per engine step and a Checkpoint frame every
   [Engine.default_journal_every] steps, to a fresh temporary file. *)
let journaled net prop =
  let path = Filename.temp_file "ivan_bench" ".wal" in
  let journal = Journal.open_file path in
  let s =
    Fun.protect
      ~finally:(fun () -> Journal.close journal)
      (fun () -> measure ~journal (Analyzer.lp_triangle ()) net prop)
  in
  let bytes = (Unix.stat path).Unix.st_size in
  let frames =
    match Journal.scan_file path with Ok r -> List.length r.Journal.records | Error _ -> 0
  in
  Sys.remove path;
  let extra = [ ("journal_bytes", float_of_int bytes); ("journal_frames", float_of_int frames) ] in
  { s with counters = s.counters @ extra }

let suites net =
  let plain = ("plain", measure (Analyzer.lp_triangle ()) net) in
  let warm = Analyzer.lp_triangle () in
  let cold =
    {
      warm with
      Analyzer.run = (fun ?(hint = Analyzer.no_hint) -> warm.Analyzer.run ~hint:{ hint with basis = None });
    }
  in
  let accepted s = List.assoc_opt "artifacts_rejected" s.counters <> Some 1.0 in
  [
    (* Node LPs solved with the hint's basis dropped vs. warm-started
       from the parent's basis, both resuming DeepPoly and Zonotope from
       the hint's analyses: a pure solver-level change, so runs must
       match.  Single-node instances solve one LP either way; their
       ratio is the runner's noise floor. *)
    {
      suite = "lp";
      quick_count = 20;
      variants =
        ( ("cold", measure ~extra:lp_counters cold net),
          ("warm", measure ~extra:lp_counters warm net) );
      identical = same_run;
      bound = None;
    };
    (* Certification disables the DeepPoly shortcut, so its cost
       includes the LP solves that shortcut would have skipped.  A
       rejected artifact fails the instance. *)
    {
      suite = "cert";
      quick_count = 10;
      variants = (("certify", certified net), plain);
      identical = (fun r s -> r.run.Bab.verdict = s.run.Bab.verdict && accepted r && accepted s);
      bound = None;
    };
    (* The acceptance bar is a geomean overhead <= 1.15x. *)
    {
      suite = "journal";
      quick_count = 10;
      variants = (("journal", journaled net), plain);
      identical = same_run;
      bound = Some 1.15;
    };
  ]

(* Linear-interpolated quantile of a non-empty list. *)
let quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let pos = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  if i + 1 >= Array.length a then a.(i)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let seconds_quantile q samples = quantile q (List.map (fun s -> s.seconds) samples)

let variant_json samples =
  let counter (k, _) =
    Printf.sprintf "%S:%.12g" k (quantile 0.5 (List.map (fun s -> List.assoc k s.counters) samples))
  in
  Printf.sprintf {|{"median_s":%.6f,"p10_s":%.6f,"p90_s":%.6f,"counters":{%s}}|}
    (seconds_quantile 0.5 samples) (seconds_quantile 0.1 samples) (seconds_quantile 0.9 samples)
    (String.concat "," (List.map counter (List.hd samples).counters))

(* Runs one suite, writes BENCH_<suite>.json and returns the number of
   instances that failed the identity check. *)
let run_suite ~net ~count s =
  let instances = Workload.robustness_instances ~spec:Zoo.fcn_mnist ~net ~count in
  let (a, run_a), (b, run_b) = s.variants in
  Format.printf "@.%s@.%s suite: %s vs. %s on %d fcn-mnist instances, %d interleaved reps@.%s@."
    (String.make 78 '=') s.suite a b (List.length instances) reps (String.make 78 '=');
  Format.printf "%-24s %-8s %5s %24s %24s %7s@." "property" "verdict" "tree"
    (a ^ " s [p10-p90]") (b ^ " s [p10-p90]") "ratio";
  let rows =
    List.map
      (fun (inst : Workload.instance) ->
        let prop = inst.Workload.prop in
        let reference = run_a prop in
        let warmup_b = run_b prop in
        let sa, sb =
          List.split
            (List.init reps (fun k ->
                 if k mod 2 = 0 then
                   let x = run_a prop in
                   (x, run_b prop)
                 else
                   let y = run_b prop in
                   (run_a prop, y)))
        in
        let identical = List.for_all (s.identical reference) ((warmup_b :: sa) @ sb) in
        let ma = seconds_quantile 0.5 sa and mb = seconds_quantile 0.5 sb in
        let ratio = if mb > 0.0 then ma /. mb else 1.0 in
        let tree = reference.run.Bab.stats.Bab.tree_size in
        let verdict =
          match reference.run.Bab.verdict with
          | Bab.Proved -> "verified"
          | Bab.Disproved _ -> "cex"
          | Bab.Exhausted -> "unknown"
        in
        let cell m xs =
          Printf.sprintf "%.4f [%.4f-%.4f]" m (seconds_quantile 0.1 xs) (seconds_quantile 0.9 xs)
        in
        Format.printf "%-24s %-8s %5d %24s %24s %6.2fx%s@." prop.Ivan_spec.Prop.name verdict tree
          (cell ma sa) (cell mb sb) ratio
          (if identical then "" else "  MISMATCH");
        let json =
          Printf.sprintf
            ({|    {"instance":%S,"verdict":%S,"identical":%b,"variants":{%S:%s,%S:%s},|}
            ^^ {|"ratio":%.4f}|})
            prop.Ivan_spec.Prop.name verdict identical a (variant_json sa) b (variant_json sb) ratio
        in
        (tree > 1, identical, ratio, json))
      instances
  in
  let geo rs = Report.geomean (List.map (fun (_, _, r, _) -> r) rs) in
  let branching, single = List.partition (fun (br, _, _, _) -> br) rows in
  let mismatches = List.length (List.filter (fun (_, ok, _, _) -> not ok) rows) in
  let within = match s.bound with None -> true | Some bound -> geo rows <= bound in
  Format.printf
    "geomean %s/%s: %.2fx over %d instances (%d branching: %.2fx, %d single-node: %.2fx)%s%s@." a b
    (geo rows) (List.length rows) (List.length branching) (geo branching) (List.length single)
    (geo single)
    (match s.bound with
    | None -> ""
    | Some bound ->
        Printf.sprintf "  (%s the %.2fx bound)" (if within then "within" else "OVER") bound)
    (if mismatches = 0 then "" else Printf.sprintf "  (%d MISMATCHES)" mismatches);
  let path = Printf.sprintf "BENCH_%s.json" s.suite in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "{\n\
        \  \"suite\": %S,\n\
        \  \"model\": %S,\n\
        \  \"budget_calls\": %d,\n\
        \  \"reps\": %d,\n\
        \  \"instances\": [\n\
         %s\n\
        \  ],\n\
        \  \"geomean_ratio\": %.4f,\n\
        \  \"geomean_ratio_branching\": %.4f,\n\
        \  \"bound\": %s,\n\
        \  \"within_bound\": %b,\n\
        \  \"mismatches\": %d\n\
         }\n"
        s.suite Zoo.fcn_mnist.Zoo.name budget.Bab.max_analyzer_calls reps
        (String.concat ",\n" (List.map (fun (_, _, _, j) -> j) rows))
        (geo rows) (geo branching)
        (match s.bound with None -> "null" | Some bound -> Printf.sprintf "%g" bound)
        within mismatches);
  Format.printf "results written to %s@." path;
  mismatches

(* Engine statistics of the fixture's from-scratch run and one
   incremental re-verification, including the resilience counters, as
   JSON — so degraded-mode overhead shows up in the perf trajectory. *)
let write_engine_stats fx ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let incremental =
    Ivan.verify_updated ~analyzer:fx.analyzer ~heuristic:Heuristic.zono_coeff
      ~config:{ Ivan.default_config with budget }
      ~original_run:fx.original ~updated:fx.updated ~prop:fx.prop
  in
  let path = Filename.concat dir "engine_stats.json" in
  let oc = open_out path in
  Printf.fprintf oc "{\"original\":%s,\"incremental\":%s}\n"
    (Report.stats_to_json fx.original.Bab.stats)
    (Report.stats_to_json incremental.Bab.stats);
  close_out oc;
  Format.printf "engine stats written to %s@." path

let run_micro () =
  let open Bechamel in
  let fx = make_fixture () in
  write_engine_stats fx ~dir:"bench_results";
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let tests = micro_tests fx @ lp_micro_tests () in
  Format.printf "@.%s@.Bechamel micro-benchmarks (one per table/figure id)@.%s@."
    (String.make 78 '=') (String.make 78 '=');
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test
        |> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
             Toolkit.Instance.monotonic_clock
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Format.printf "%-32s %14.1f ns/run@." name est
          | Some _ | None -> Format.printf "%-32s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let scale = if List.mem "quick" args then Experiments.quick else Experiments.full in
  let micro = not (List.mem "--no-micro" args) in
  (* -j N: run instances on N domains. *)
  let rec jobs = function
    | "-j" :: n :: _ -> (try max 1 (int_of_string n) with Failure _ -> 1)
    | _ :: rest -> jobs rest
    | [] -> 1
  in
  let domains = jobs args in
  (* --strategy NAME: frontier exploration order for every BaB run. *)
  let rec strategy = function
    | "--strategy" :: name :: _ -> (
        match Ivan_bab.Frontier.strategy_of_string name with
        | Some s -> s
        | None -> failwith (Printf.sprintf "unknown strategy %S (fifo|lifo|best)" name))
    | _ :: rest -> strategy rest
    | [] -> Ivan_bab.Frontier.Fifo
  in
  let strategy = strategy args in
  (* Each flag selects one A/B suite; without any, all of them run
     after the paper experiments. *)
  let only =
    List.filter_map
      (fun (flag, suite) -> if List.mem flag args then Some suite else None)
      [ ("--lp-only", "lp"); ("--certify", "cert"); ("--journal", "journal") ]
  in
  let quick_scale = scale.Experiments.label = Experiments.quick.Experiments.label in
  (* Runs the selected A/B suites; the number of failed instances. *)
  let run_suites () =
    let net = Zoo.load_or_train Zoo.fcn_mnist in
    List.fold_left
      (fun failures s ->
        if only = [] || List.mem s.suite only then
          failures + run_suite ~net ~count:(if quick_scale then s.quick_count else 24) s
        else failures)
      0 (suites net)
  in
  Format.printf "IVAN reproduction benchmark (scale: %s, domains: %d, frontier: %s)@."
    scale.Experiments.label domains
    (Ivan_bab.Frontier.strategy_name strategy);
  let failures =
    if only <> [] then run_suites ()
    else begin
      let ctx = Experiments.create ~domains ~strategy scale in
      let (), elapsed =
        Ivan_clock.Clock.timed (fun () -> Experiments.run_all ctx Format.std_formatter)
      in
      Format.printf "@.experiments completed in %.1fs@." elapsed;
      (* Per-instance results for offline analysis. *)
      Experiments.export_csv ctx ~dir:"bench_results";
      Format.printf "per-instance CSVs written to bench_results/@.";
      let failures = run_suites () in
      if micro then run_micro ();
      failures
    end
  in
  if failures > 0 then begin
    Format.printf "%d instances failed their suite's identity check@." failures;
    exit 1
  end
