(* Repository benchmark: IVAN re-verification time.

   ivbench prepare --workload W
     trains (or loads) the workload's zoo models into _zoo_cache/; not
     timed, run once before any measurement.
   ivbench run --workload W --seed N --seconds S --trace 0|1
     generates the workload's inputs from N, measures for about S
     seconds and prints, as its last line, one JSON object with the
     keys correct / attempted / failed / metrics.  --trace 0 reports the
     end-to-end metrics of untraced passes; --trace 1 reports per-layer
     metrics from traced passes and their stage replay.

   See README.md in this directory for what each metric measures. *)

module Clock = Ivan_clock.Clock

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      if n mod 2 = 1 then List.nth sorted (n / 2)
      else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

(* Metrics are printed with every digit the float carries. *)
let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let json_string s = "\"" ^ String.escaped s ^ "\""

let result_line ~correct ~attempted ~failed metrics =
  let metric (name, unit, value) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_number value) (json_string unit)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted failed
    (String.concat ", " (List.map metric metrics))

(* The run's inputs, printed before the result line. *)
let describe (w : Workloads.t) ~seed families =
  let family (f : Workloads.family) =
    Printf.sprintf "{\"model\": %s, \"instances\": %d, \"net\": %s, \"updated\": %s, \"pinned\": %b}"
      (json_string f.Workloads.spec.Ivan_data.Zoo.name)
      (List.length f.Workloads.props)
      (json_string (Workloads.fingerprint f.Workloads.net))
      (json_string (Workloads.fingerprint f.Workloads.updated))
      (Workloads.matches_pinned f)
  in
  let config = Workloads.config w in
  Printf.printf
    "inputs: {\"workload\": %s, \"seed\": %d, \"update\": %s, \"calls_budget\": %d, \"alpha\": %s, \"theta\": \
     %s, \"robustness_offset\": %d, \"families\": [%s]}\n"
    (json_string w.Workloads.name) seed
    (json_string (Ivan_nn.Quant.scheme_name Workloads.update))
    w.Workloads.calls
    (json_number config.Ivan_core.Ivan.alpha)
    (json_number config.Ivan_core.Ivan.theta)
    (Workloads.robustness_offset seed)
    (String.concat ", " (List.map family families));
  if not (List.for_all Workloads.matches_pinned families) then
    prerr_endline "ivbench: zoo models differ from the pinned fingerprints; do not compare with pinned runs"

(* Set-ups per run: at least [min_setups], more while they fit in
   [setup_budget_s] (at most [max_setups]). *)
let min_setups = 5

let max_setups = 25

let setup_budget_s = 1.0

(* Set up repeatedly, each time from a compacted heap and between two
   reference ticks, and keep the last result.  Returns the median
   measured and the median calibrated seconds. *)
let timed_setup w ~seed =
  let start = Clock.monotonic () in
  let rec loop raw calibrated k =
    let families, s, c =
      Gc.compact ();
      Speed.timed (Speed.create ()) (fun () -> Workloads.setup w ~seed)
    in
    let raw = s :: raw and calibrated = c :: calibrated in
    if k + 1 >= max_setups || (k + 1 >= min_setups && Clock.monotonic () -. start >= setup_budget_s) then
      (families, median raw, median calibrated)
    else loop raw calibrated (k + 1)
  in
  loop [] [] 0

let heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0

let min_passes = 3

(* True while another round that takes as long as the slowest so far
   still ends within [seconds] of [start]. *)
let another_fits ~start ~seconds ~slowest = Clock.monotonic () -. start +. slowest <= seconds

(* Untraced passes for [seconds] (at least [min_passes]); every pass
   must do the same work as the first. *)
let measure w ~seconds families =
  let checks = Passes.new_checks () in
  let runner = Passes.plain w in
  let start = Clock.monotonic () in
  let slowest = ref 0.0 in
  let pass k =
    Gc.compact ();
    let p, s = Clock.timed (fun () -> Passes.run w runner checks ~pass:k families) in
    slowest := Float.max !slowest s;
    p
  in
  let first = pass 0 in
  let rec loop acc k =
    if k >= min_passes && not (another_fits ~start ~seconds ~slowest:!slowest) then List.rev acc
    else begin
      let p = pass k in
      Passes.same_work checks ~reference:first p;
      loop (p :: acc) (k + 1)
    end
  in
  (checks, loop [ first ] 1)

let end_to_end w ~seed ~seconds =
  let families, raw_setup_s, setup_s = timed_setup w ~seed in
  describe w ~seed families;
  let checks, passes = measure w ~seconds families in
  let first = List.hd passes in
  let n = List.length first.Passes.results in
  let decided = List.length (List.filter (fun r -> Passes.decided r.Passes.ivan.Passes.verdict) first.Passes.results) in
  let m f = median (List.map f passes) in
  List.iter prerr_endline (List.rev checks.Passes.notes);
  let raw f = median (List.map (Passes.raw f) passes) in
  Printf.printf
    "measured: {\"passes\": %d, \"setup_s\": %s, \"original_s\": %s, \"baseline_s\": %s, \"ivan_s\": %s, \
     \"mean_tick_ms\": %s}\n"
    (List.length passes) (json_number raw_setup_s)
    (json_number (raw Passes.orig))
    (json_number (raw Passes.base))
    (json_number (raw Passes.ivan))
    (json_number (1000.0 *. median (List.map (fun p -> Speed.mean_tick_s p.Passes.speed) passes)));
  let metrics =
    [
      ("setup_s", "s", setup_s);
      ("original_s", "s", m Passes.original_s);
      ("baseline_s", "s", m Passes.baseline_s);
      ("ivan_s", "s", m Passes.ivan_s);
      ( "sp_cost",
        "x",
        float_of_int (Passes.calls Passes.base first) /. float_of_int (max 1 (Passes.calls Passes.ivan first)) );
      ("decided_frac", "ratio", float_of_int decided /. float_of_int (max 1 n));
      ("peak_heap_mb", "MB", heap_mb ());
    ]
  in
  (checks, metrics)

(* Per-layer metrics of one traced pass.  [untraced] holds the
   medians of the untraced passes run alongside, for sp_time and the
   tracing overhead. *)
let layer_metrics (l : Layers.t) (traced : Passes.pass) ~untraced_baseline_s ~untraced_ivan_s =
  let r = l.Layers.replay in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let count n = float_of_int n in
  let stages = Replay.stage_sum r in
  let wall = Passes.raw Passes.orig traced +. Passes.raw Passes.base traced +. Passes.raw Passes.ivan traced in
  let calls f = Passes.calls f traced in
  [
    ("analyzer.calls", "count", count l.Layers.analyzer_calls);
    ("analyzer.busy_s", "s", l.Layers.analyzer_s);
    ("analyzer.lp_free_frac", "ratio", ratio (count r.Replay.lp_free) (count r.Replay.nodes));
    ("deeppoly.calls", "count", count r.Replay.deeppoly_calls);
    ("deeppoly.busy_share", "ratio", ratio r.Replay.deeppoly_s stages);
    ("deeppoly.ambiguous_relus", "count", count r.Replay.ambiguous_relus);
    ("zonotope.calls", "count", count r.Replay.zonotope_calls);
    ("zonotope.busy_s", "s", r.Replay.zonotope_s);
    ("zonotope.tighter_frac", "ratio", ratio (count r.Replay.zonotope_tighter) (count r.Replay.zonotope_calls));
    ("zonotope.decisive_frac", "ratio", ratio (count r.Replay.zonotope_decisive) (count r.Replay.zonotope_calls));
    ("encoding.build_share", "ratio", ratio r.Replay.encoding_build_s stages);
    ("encoding.specialize_share", "ratio", ratio r.Replay.encoding_specialize_s stages);
    ("encoding.mismatch_frac", "ratio", ratio (count r.Replay.encoding_mismatches) (count r.Replay.specializations));
    ("lp.solves", "count", count l.Layers.lp_solves);
    ("lp.busy_share", "ratio", ratio r.Replay.lp_s stages);
    ("lp.pivots", "count", count l.Layers.lp_pivots);
    ("lp.warm_hit_frac", "ratio", ratio (count l.Layers.lp_warm_hits) (count l.Layers.lp_solves));
    ("heuristic.calls", "count", count l.Layers.heuristic_calls);
    ("heuristic.busy_s", "s", l.Layers.heuristic_s);
    ("engine.nodes", "count", count l.Layers.nodes);
    ("engine.max_frontier", "count", count l.Layers.max_frontier);
    ("engine.self_s", "s", Layers.engine_self_s l);
    ("ivan.t0_nodes", "count", count l.Layers.t0_nodes);
    ("ivan.pruned_splits", "count", count l.Layers.pruned_splits);
    ("ivan.calls_saved", "count", count (calls Passes.base - calls Passes.ivan));
    ("ivan.prep_s", "s", l.Layers.prep_s);
    ("sp_time", "x", ratio untraced_baseline_s untraced_ivan_s);
    ("journal.appends", "count", count l.Layers.journal_appends);
    ("journal.bytes", "B", count l.Layers.journal_bytes);
    ("journal.write_share", "ratio", ratio l.Layers.journal_s wall);
    ("cert.emitted", "count", count l.Layers.certs_emitted);
    ("cert.unavailable", "count", count l.Layers.certs_unavailable);
    ("cert.snapshot_share", "ratio", ratio r.Replay.snapshot_s stages);
    ("cert.check_share", "ratio", ratio l.Layers.cert_check_s wall);
    ("cert.artifact_bytes", "B", count l.Layers.artifact_bytes);
    ("replay.nodes", "count", count r.Replay.nodes);
    ("replay.mismatches", "count", count r.Replay.mismatches);
    ("replay.stage_ratio", "ratio", ratio stages l.Layers.analyzer_s);
    ("trace.overhead", "x", ratio (Passes.ivan_s traced) untraced_ivan_s);
  ]

(* Shares of node time (replayed stages plus the heuristic). *)
let print_stage_shares (w : Workloads.t) (l : Layers.t) =
  let r = l.Layers.replay in
  let total = Replay.stage_sum r +. l.Layers.heuristic_s in
  Printf.printf "stage shares (%s, %d replayed nodes, %.3f s):" w.Workloads.name r.Replay.nodes total;
  List.iter
    (fun (name, s) -> Printf.printf " %s %.1f%%" name (100.0 *. s /. total))
    [
      ("simplex", r.Replay.lp_s);
      ("deeppoly", r.Replay.deeppoly_s);
      ("zonotope", r.Replay.zonotope_s);
      ("encoding-build", r.Replay.encoding_build_s);
      ("encoding-specialize", r.Replay.encoding_specialize_s);
      ("cert-snapshot", r.Replay.snapshot_s);
      ("concrete-check", r.Replay.concrete_s);
      ("heuristic", l.Layers.heuristic_s);
    ];
  print_newline ()

(* The replay is only used when every node reproduced its recorded
   bound and the replayed stages account for the analyzer's time to
   within a tenth. *)
let replay_valid (l : Layers.t) =
  let r = l.Layers.replay in
  r.Replay.mismatches = 0 && Float.abs ((Replay.stage_sum r /. l.Layers.analyzer_s) -. 1.0) <= 0.1

(* Alternate untraced and traced passes for [seconds] (at least one of
   each). *)
let per_layer w ~seed ~seconds =
  let families = Workloads.setup w ~seed in
  describe w ~seed families;
  let checks = Passes.new_checks () in
  let plain = Passes.plain w in
  let start = Clock.monotonic () in
  let slowest = ref 0.0 in
  let rec loop acc k =
    if k > 0 && not (another_fits ~start ~seconds ~slowest:!slowest) then List.rev acc
    else begin
      let t0 = Clock.monotonic () in
      Gc.compact ();
      let untraced = Passes.run w plain checks ~pass:k families in
      Gc.compact ();
      let l = Layers.create () in
      let traced = Passes.run w (Layers.runner w l) checks ~pass:k families in
      slowest := Float.max !slowest (Clock.monotonic () -. t0);
      loop ((untraced, traced, l) :: acc) (k + 1)
    end
  in
  let cycles = loop [] 0 in
  let reference, _, _ = List.hd cycles in
  List.iter
    (fun (u, t, _) ->
      Passes.same_work checks ~reference u;
      Passes.same_work checks ~reference t)
    cycles;
  let untraced_baseline_s = median (List.map (fun (u, _, _) -> Passes.baseline_s u) cycles) in
  let untraced_ivan_s = median (List.map (fun (u, _, _) -> Passes.ivan_s u) cycles) in
  let per_cycle =
    List.map (fun (_, t, l) -> layer_metrics l t ~untraced_baseline_s ~untraced_ivan_s) cycles
  in
  let _, _, first = List.hd cycles in
  print_stage_shares w first;
  let valid = List.for_all (fun (_, _, l) -> replay_valid l) cycles in
  Printf.printf "cycles: %d, replay %s\n" (List.length cycles) (if valid then "valid" else "INVALID");
  List.iter prerr_endline (List.rev checks.Passes.notes);
  let metrics =
    List.mapi
      (fun i (name, unit, _) ->
        (name, unit, median (List.map (fun m -> let _, _, v = List.nth m i in v) per_cycle)))
      (List.hd per_cycle)
  in
  (checks, metrics @ [ ("replay.valid", "bool", if valid then 1.0 else 0.0) ])

let usage () =
  prerr_endline
    "usage: ivbench prepare --workload W\n\
    \       ivbench run --workload W --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec options acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        options ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let command, opts = match args with c :: rest -> (c, options [] rest) | [] -> usage () in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (get key) with Some v -> v | None -> usage () in
  let w =
    match Workloads.find (get "workload") with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %s\n" (get "workload");
        exit 2
  in
  match command with
  | "prepare" -> Workloads.prepare w
  | "run" ->
      let seed = int "seed" and seconds = float_of_int (int "seconds") and trace = int "trace" in
      if trace <> 0 && trace <> 1 then usage ();
      if w.Workloads.certify && not (Sys.file_exists Passes.wal_dir) then Sys.mkdir Passes.wal_dir 0o755;
      let checks, metrics =
        if trace = 0 then end_to_end w ~seed ~seconds else per_layer w ~seed ~seconds
      in
      print_endline
        (result_line ~correct:(checks.Passes.failed = 0) ~attempted:checks.Passes.attempted
           ~failed:checks.Passes.failed metrics)
  | _ -> usage ()
