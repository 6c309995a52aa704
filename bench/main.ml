(* Benchmark harness.

   Two parts:
   1. The paper reproduction: every table and figure of the evaluation,
      regenerated by the experiment drivers (the bulk of the output).
   2. Bechamel micro-benchmarks: one [Test.make] per table/figure id,
      timing the representative kernel behind that experiment.

   Usage:  dune exec bench/main.exe -- [quick|full] [--no-micro] [-j N]
                                       [--strategy fifo|lifo|best] [--lp-only]
                                       [--certify] [--journal]
   Default scale is [full], sequential, fifo frontier.  [--lp-only]
   skips the paper experiments and micro-benchmarks and runs just the
   cold-vs-warm LP comparison (writing BENCH_lp.json).  [--certify]
   similarly runs just the proof-certificate overhead suite: each
   instance verified plain and with certification, plus the independent
   exact check of every emitted artifact (writing BENCH_cert.json).
   [--journal] runs just the write-ahead-journal overhead suite: each
   instance verified plain and with a flushed-per-frame journal
   (writing BENCH_journal.json; acceptance bar: geomean <= 1.15x). *)

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
    (* F6: one non-incremental LP-BaB bounding call. *)
    Test.make ~name:"fig6/lp-analyzer-call"
      (Staged.stage (fun () ->
           ignore
             (fx.analyzer.Analyzer.run fx.net ~prop:fx.prop ~box:fx.prop.Ivan_spec.Prop.input
                ~splits:Splits.empty)));
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

(* End-to-end: verify the fcn-mnist robustness suite from scratch with
   warm starts off, then on.  Verdicts, trees and analyzer calls must be
   identical (warm starting is a pure solver-level optimization); the
   table and BENCH_lp.json report the wall-time and simplex-pivot
   savings.  Properties whose proof tree is a single node never
   re-solve an LP incrementally — there is no parent basis to start
   from — so the headline geomeans are taken over the branching
   instances (the all-instance geomeans are reported alongside). *)
let run_lp_bench ~count () =
  let spec = Zoo.fcn_mnist in
  let net = Zoo.load_or_train spec in
  let instances = Workload.robustness_instances ~spec ~net ~count in
  let budget = { Bab.max_analyzer_calls = 400; max_seconds = 30.0 } in
  let verify ~warm prop =
    let analyzer = Analyzer.lp_triangle ~warm () in
    Ivan_clock.Clock.timed (fun () ->
        Bab.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~budget ~net ~prop ())
  in
  Format.printf "@.%s@.Incremental LP: cold vs. warm-started node solves (%s, %d instances)@.%s@."
    (String.make 78 '=') spec.Zoo.name (List.length instances) (String.make 78 '=');
  Format.printf "%-24s %-10s %5s %8s %8s %7s %9s %9s %7s@." "property" "verdict" "tree" "cold s"
    "warm s" "time x" "cold piv" "warm piv" "piv x";
  let mismatches = ref 0 in
  let rows =
    List.map
      (fun (inst : Workload.instance) ->
        let prop = inst.Workload.prop in
        let cold, cold_s = verify ~warm:false prop in
        let warm, warm_s = verify ~warm:true prop in
        let identical =
          cold.Bab.verdict = warm.Bab.verdict
          && cold.Bab.stats.Bab.tree_size = warm.Bab.stats.Bab.tree_size
          && cold.Bab.stats.Bab.analyzer_calls = warm.Bab.stats.Bab.analyzer_calls
        in
        if not identical then incr mismatches;
        let tree = cold.Bab.stats.Bab.tree_size in
        let cold_piv = cold.Bab.stats.Bab.lp_pivots
        and warm_piv = warm.Bab.stats.Bab.lp_pivots in
        let time_x = if warm_s > 0.0 then cold_s /. warm_s else 1.0 in
        let piv_x =
          if warm_piv > 0 then float_of_int cold_piv /. float_of_int warm_piv else 1.0
        in
        let verdict =
          match warm.Bab.verdict with
          | Bab.Proved -> "verified"
          | Bab.Disproved _ -> "cex"
          | Bab.Exhausted -> "unknown"
        in
        Format.printf "%-24s %-10s %5d %8.3f %8.3f %6.2fx %9d %9d %6.2fx%s%s@."
          prop.Ivan_spec.Prop.name verdict tree cold_s warm_s time_x cold_piv warm_piv piv_x
          (if tree > 1 then "" else "  (single node, excluded)")
          (if identical then "" else "  MISMATCH");
        (prop.Ivan_spec.Prop.name, verdict, identical, (cold, cold_s), (warm, warm_s), time_x, piv_x))
      instances
  in
  let branching (_, _, _, ((cold : Bab.run), _), _, _, _) = cold.Bab.stats.Bab.tree_size > 1 in
  let hard = List.filter branching rows in
  let geo f rs = Report.geomean (List.map f rs) in
  let time_of (_, _, _, _, _, t, _) = t and piv_of (_, _, _, _, _, _, p) = p in
  let geo_time = geo time_of hard and geo_piv = geo piv_of hard in
  let geo_time_all = geo time_of rows and geo_piv_all = geo piv_of rows in
  Format.printf
    "geomean speedup over %d branching instances: time %.2fx  pivots %.2fx  (all %d instances: \
     time %.2fx  pivots %.2fx)%s@."
    (List.length hard) geo_time geo_piv (List.length rows) geo_time_all geo_piv_all
    (if !mismatches = 0 then "" else Printf.sprintf "  (%d verdict/tree MISMATCHES)" !mismatches);
  let oc = open_out "BENCH_lp.json" in
  let instance_json (name, verdict, identical, (cold, cold_s), (warm, warm_s), time_x, piv_x) =
    let s (r : Bab.run) =
      Printf.sprintf
        {|{"lp_warm_hits":%d,"lp_warm_misses":%d,"lp_cold_solves":%d,"lp_pivots":%d,"analyzer_calls":%d,"tree_size":%d}|}
        r.Bab.stats.Bab.lp_warm_hits r.Bab.stats.Bab.lp_warm_misses
        r.Bab.stats.Bab.lp_cold_solves r.Bab.stats.Bab.lp_pivots r.Bab.stats.Bab.analyzer_calls
        r.Bab.stats.Bab.tree_size
    in
    Printf.sprintf
      {|    {"property":%S,"verdict":%S,"identical":%b,"cold_seconds":%.6f,"warm_seconds":%.6f,"time_speedup":%.4f,"pivot_ratio":%.4f,"cold":%s,"warm":%s}|}
      name verdict identical cold_s warm_s time_x piv_x (s cold) (s warm)
  in
  Printf.fprintf oc
    "{\n\
    \  \"model\": %S,\n\
    \  \"budget_calls\": %d,\n\
    \  \"note\": \"geomeans are over branching instances (proof tree > 1 node); single-node \
     instances solve exactly one LP and have no incremental re-solves\",\n\
    \  \"instances\": [\n\
     %s\n\
    \  ],\n\
    \  \"branching_instances\": %d,\n\
    \  \"geomean_time_speedup\": %.4f,\n\
    \  \"geomean_pivot_ratio\": %.4f,\n\
    \  \"geomean_time_speedup_all_instances\": %.4f,\n\
    \  \"geomean_pivot_ratio_all_instances\": %.4f,\n\
    \  \"mismatches\": %d\n\
     }\n"
    spec.Zoo.name budget.Bab.max_analyzer_calls
    (String.concat ",\n" (List.map instance_json rows))
    (List.length hard) geo_time geo_piv geo_time_all geo_piv_all !mismatches;
  close_out oc;
  Format.printf "cold-vs-warm results written to BENCH_lp.json@."

(* ------------------------------------------------------------------ *)
(* Proof certificates: verification overhead and checking cost *)

module Cert = Ivan_cert.Cert

(* End-to-end: verify the fcn-mnist robustness suite plain, then again
   with certification (exact per-leaf certificates collected into a
   proof artifact), then run the independent exact checker over each
   artifact.  Verdicts must be identical — certification only adds
   evidence — and the wall-clock overhead is the headline number (the
   target is < 2x: certification disables the DeepPoly shortcut and
   snapshots every LP, but never solves extra nodes). *)
let run_cert_bench ~count () =
  let spec = Zoo.fcn_mnist in
  let net = Zoo.load_or_train spec in
  let instances = Workload.robustness_instances ~spec ~net ~count in
  let budget = { Bab.max_analyzer_calls = 400; max_seconds = 30.0 } in
  let verify ~certify prop =
    let analyzer = Analyzer.lp_triangle ~certify () in
    Ivan_clock.Clock.timed (fun () ->
        Bab.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~budget ~certify ~net ~prop ())
  in
  Format.printf "@.%s@.Proof certificates: emission overhead and checking cost (%s, %d instances)@.%s@."
    (String.make 78 '=') spec.Zoo.name (List.length instances) (String.make 78 '=');
  Format.printf "%-24s %-10s %5s %8s %8s %7s %6s %7s %9s %7s@." "property" "verdict" "tree"
    "base s" "cert s" "time x" "certs" "unavail" "check s" "bytes";
  let mismatches = ref 0 and rejected = ref 0 in
  let rows =
    List.map
      (fun (inst : Workload.instance) ->
        let prop = inst.Workload.prop in
        let base, base_s = verify ~certify:false prop in
        let cert, cert_s = verify ~certify:true prop in
        if base.Bab.verdict <> cert.Bab.verdict then incr mismatches;
        let check_s, bytes, ok =
          match cert.Bab.artifact with
          | None -> (0.0, 0, true)
          | Some artifact ->
              let text = Cert.Artifact.to_string artifact in
              let result, s = Ivan_clock.Clock.timed (fun () -> Cert.check_artifact artifact) in
              let ok = match result with Ok _ -> true | Error _ -> false in
              if not ok then incr rejected;
              (s, String.length text, ok)
        in
        let time_x = if base_s > 0.0 then cert_s /. base_s else 1.0 in
        let verdict =
          match cert.Bab.verdict with
          | Bab.Proved -> "verified"
          | Bab.Disproved _ -> "cex"
          | Bab.Exhausted -> "unknown"
        in
        Format.printf "%-24s %-10s %5d %8.3f %8.3f %6.2fx %6d %7d %9.4f %7d%s%s@."
          prop.Ivan_spec.Prop.name verdict cert.Bab.stats.Bab.tree_size base_s cert_s time_x
          cert.Bab.stats.Bab.certs_emitted cert.Bab.stats.Bab.certs_unavailable check_s bytes
          (if ok then "" else "  REJECTED")
          (if base.Bab.verdict = cert.Bab.verdict then "" else "  MISMATCH");
        (prop.Ivan_spec.Prop.name, verdict, base_s, cert_s, time_x, check_s, bytes, cert, ok))
      instances
  in
  let geo f rs = Report.geomean (List.map f rs) in
  let geo_time = geo (fun (_, _, _, _, t, _, _, _, _) -> t) rows in
  let total_check = List.fold_left (fun acc (_, _, _, _, _, s, _, _, _) -> acc +. s) 0.0 rows in
  Format.printf
    "geomean certification overhead over %d instances: %.2fx  (total artifact check time %.3fs)%s%s@."
    (List.length rows) geo_time total_check
    (if !rejected = 0 then "" else Printf.sprintf "  (%d artifacts REJECTED)" !rejected)
    (if !mismatches = 0 then "" else Printf.sprintf "  (%d verdict MISMATCHES)" !mismatches);
  let oc = open_out "BENCH_cert.json" in
  let instance_json (name, verdict, base_s, cert_s, time_x, check_s, bytes, (cert : Bab.run), ok) =
    Printf.sprintf
      {|    {"property":%S,"verdict":%S,"base_seconds":%.6f,"certify_seconds":%.6f,"overhead":%.4f,"check_seconds":%.6f,"artifact_bytes":%d,"certs_emitted":%d,"certs_unavailable":%d,"artifact_valid":%b}|}
      name verdict base_s cert_s time_x check_s bytes cert.Bab.stats.Bab.certs_emitted
      cert.Bab.stats.Bab.certs_unavailable ok
  in
  Printf.fprintf oc
    "{\n\
    \  \"model\": %S,\n\
    \  \"budget_calls\": %d,\n\
    \  \"note\": \"overhead compares a plain run against one collecting exact-checked per-leaf \
     certificates; certification disables the DeepPoly shortcut, so its cost includes the extra \
     LP solves that shortcut would have skipped\",\n\
    \  \"instances\": [\n\
     %s\n\
    \  ],\n\
    \  \"geomean_overhead\": %.4f,\n\
    \  \"total_check_seconds\": %.6f,\n\
    \  \"rejected_artifacts\": %d,\n\
    \  \"verdict_mismatches\": %d\n\
     }\n"
    spec.Zoo.name budget.Bab.max_analyzer_calls
    (String.concat ",\n" (List.map instance_json rows))
    geo_time total_check !rejected !mismatches;
  close_out oc;
  Format.printf "certification results written to BENCH_cert.json@."

(* ------------------------------------------------------------------ *)
(* Write-ahead journal: crash-safety overhead *)

module Journal = Ivan_resilience.Journal

(* Each instance is verified plain and with a write-ahead journal (one
   Step frame per engine step, a Checkpoint frame every
   [Engine.default_journal_every] steps, flushed to disk after every
   append).  Journaling must not change the run — identical verdict,
   tree and analyzer calls — and the wall-clock overhead is the
   headline: the acceptance bar is a geomean <= 1.15x. *)
let run_journal_bench ~count () =
  let spec = Zoo.fcn_mnist in
  let net = Zoo.load_or_train spec in
  let instances = Workload.robustness_instances ~spec ~net ~count in
  let budget = { Bab.max_analyzer_calls = 400; max_seconds = 30.0 } in
  let verify ?journal prop =
    let analyzer = Analyzer.lp_triangle () in
    Ivan_clock.Clock.timed (fun () ->
        Bab.verify ~analyzer ~heuristic:Heuristic.zono_coeff ~budget ?journal ~net ~prop ())
  in
  Format.printf "@.%s@.Write-ahead journal: crash-safety overhead (%s, %d instances)@.%s@."
    (String.make 78 '=') spec.Zoo.name (List.length instances) (String.make 78 '=');
  Format.printf "%-24s %-10s %5s %8s %8s %7s %9s %7s@." "property" "verdict" "tree" "plain s"
    "journ s" "time x" "bytes" "frames";
  let mismatches = ref 0 in
  let rows =
    List.map
      (fun (inst : Workload.instance) ->
        let prop = inst.Workload.prop in
        let plain, plain_s = verify prop in
        let path = Filename.temp_file "ivan_bench" ".wal" in
        let journal = Journal.open_file path in
        let journaled, journal_s =
          Fun.protect
            ~finally:(fun () -> Journal.close journal)
            (fun () -> verify ~journal prop)
        in
        let bytes = (Unix.stat path).Unix.st_size in
        let frames =
          match Journal.scan_file path with
          | Ok r -> List.length r.Journal.records
          | Error _ -> 0
        in
        (try Sys.remove path with Sys_error _ -> ());
        let identical =
          plain.Bab.verdict = journaled.Bab.verdict
          && plain.Bab.stats.Bab.tree_size = journaled.Bab.stats.Bab.tree_size
          && plain.Bab.stats.Bab.analyzer_calls = journaled.Bab.stats.Bab.analyzer_calls
        in
        if not identical then incr mismatches;
        let time_x = if plain_s > 0.0 then journal_s /. plain_s else 1.0 in
        let verdict =
          match journaled.Bab.verdict with
          | Bab.Proved -> "verified"
          | Bab.Disproved _ -> "cex"
          | Bab.Exhausted -> "unknown"
        in
        Format.printf "%-24s %-10s %5d %8.3f %8.3f %6.2fx %9d %7d%s@."
          prop.Ivan_spec.Prop.name verdict plain.Bab.stats.Bab.tree_size plain_s journal_s time_x
          bytes frames
          (if identical then "" else "  MISMATCH");
        (prop.Ivan_spec.Prop.name, verdict, identical, plain_s, journal_s, time_x, bytes, frames))
      instances
  in
  let geo =
    Report.geomean (List.map (fun (_, _, _, _, _, t, _, _) -> t) rows)
  in
  Format.printf "geomean journaling overhead over %d instances: %.2fx%s%s@." (List.length rows)
    geo
    (if geo <= 1.15 then "  (within the 1.15x budget)" else "  (OVER the 1.15x budget)")
    (if !mismatches = 0 then "" else Printf.sprintf "  (%d MISMATCHES)" !mismatches);
  let oc = open_out "BENCH_journal.json" in
  let instance_json (name, verdict, identical, plain_s, journal_s, time_x, bytes, frames) =
    Printf.sprintf
      {|    {"property":%S,"verdict":%S,"identical":%b,"plain_seconds":%.6f,"journal_seconds":%.6f,"overhead":%.4f,"journal_bytes":%d,"journal_frames":%d}|}
      name verdict identical plain_s journal_s time_x bytes frames
  in
  Printf.fprintf oc
    "{\n\
    \  \"model\": %S,\n\
    \  \"budget_calls\": %d,\n\
    \  \"journal_every\": %d,\n\
    \  \"instances\": [\n\
     %s\n\
    \  ],\n\
    \  \"geomean_overhead\": %.4f,\n\
    \  \"overhead_budget\": 1.15,\n\
    \  \"within_budget\": %b,\n\
    \  \"mismatches\": %d\n\
     }\n"
    spec.Zoo.name budget.Bab.max_analyzer_calls Ivan_bab.Engine.default_journal_every
    (String.concat ",\n" (List.map instance_json rows))
    geo (geo <= 1.15) !mismatches;
  close_out oc;
  Format.printf "journal overhead results written to BENCH_journal.json@."

(* Engine statistics of the fixture's from-scratch run and one
   incremental re-verification, including the resilience counters, as
   JSON — so degraded-mode overhead shows up in the perf trajectory. *)
let write_engine_stats fx ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let budget = { Bab.max_analyzer_calls = 400; max_seconds = 30.0 } in
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
  let lp_only = List.mem "--lp-only" args in
  let cert_only = List.mem "--certify" args in
  let journal_only = List.mem "--journal" args in
  let quick_scale = scale.Experiments.label = Experiments.quick.Experiments.label in
  let lp_count = if quick_scale then 20 else 24 in
  let cert_count = if quick_scale then 10 else 24 in
  let journal_count = if quick_scale then 10 else 24 in
  Format.printf "IVAN reproduction benchmark (scale: %s, domains: %d, frontier: %s)@."
    scale.Experiments.label domains
    (Ivan_bab.Frontier.strategy_name strategy);
  if cert_only then run_cert_bench ~count:cert_count ()
  else if lp_only then run_lp_bench ~count:lp_count ()
  else if journal_only then run_journal_bench ~count:journal_count ()
  else begin
    let ctx = Experiments.create ~domains ~strategy scale in
    let (), elapsed =
      Ivan_clock.Clock.timed (fun () -> Experiments.run_all ctx Format.std_formatter)
    in
    Format.printf "@.experiments completed in %.1fs@." elapsed;
    (* Per-instance results for offline analysis. *)
    Experiments.export_csv ctx ~dir:"bench_results";
    Format.printf "per-instance CSVs written to bench_results/@.";
    run_lp_bench ~count:lp_count ();
    run_cert_bench ~count:cert_count ();
    run_journal_bench ~count:journal_count ();
    if micro then run_micro ()
  end
