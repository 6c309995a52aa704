(* One pass of a workload: every instance goes through the paper's
   three phases — verify N from scratch, re-verify N^a from scratch
   (baseline), re-verify N^a with IVAN — and every output is checked.

   Order bias is removed in two ways.  Each phase gets a physically
   fresh copy of the property, so the analyzer's per-(network, property)
   encoding cache never carries one phase's first-touch work into
   another, just as a user re-verifying in a new session pays it again.
   Baseline and IVAN alternate which one runs first, by instance and by
   pass. *)

module Network = Ivan_nn.Network
module Prop = Ivan_spec.Prop
module Analyzer = Ivan_analyzer.Analyzer
module Bab = Ivan_bab.Bab
module Tree = Ivan_spectree.Tree
module Journal = Ivan_resilience.Journal
module Cert = Ivan_cert.Cert
module Ivan = Ivan_core.Ivan

type phase = Original | Baseline | Incremental

let phase_name = function Original -> "original" | Baseline -> "baseline" | Incremental -> "ivan"

type outcome = {
  seconds : float;  (** measured *)
  calibrated : float;  (** see [Speed] *)
  calls : int;
  tree_size : int;
  verdict : Bab.verdict;
}

(* How one phase of one instance is executed: untraced through the
   library's public entry points, or traced through [Layers]. *)
type runner = {
  original : net:Network.t -> prop:Prop.t -> journal:Journal.writer option -> Bab.run;
  updated :
    technique:Ivan.technique ->
    original_run:Bab.run ->
    net:Network.t ->
    prop:Prop.t ->
    journal:Journal.writer option ->
    Bab.run;
  open_journal : string -> Journal.writer;
  check_artifact : Cert.Artifact.t -> (Cert.report, string) result;
  observe : net:Network.t -> prop:Prop.t -> Bab.run -> unit;
      (** called right after each timed phase, outside its timing *)
}

let plain w =
  let analyzer = Workloads.analyzer w and heuristic = Workloads.heuristic w in
  let config = Workloads.config w in
  {
    original =
      (fun ~net ~prop ~journal ->
        Ivan.verify_original ~analyzer ~heuristic ~budget:config.Ivan.budget ~certify:w.Workloads.certify
          ?journal ~net ~prop ());
    updated =
      (fun ~technique ~original_run ~net ~prop ~journal ->
        Ivan.verify_updated ~analyzer ~heuristic
          ~config:{ config with technique; journal }
          ~original_run ~updated:net ~prop);
    open_journal = Journal.open_file;
    check_artifact = Cert.check_artifact;
    observe = (fun ~net:_ ~prop:_ _ -> ());
  }

let fresh prop = { prop with Prop.name = prop.Prop.name }

(* Failed operations of a run, counted against those attempted; the
first few are kept as notes for standard error. *)
type checks = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let new_checks () = { attempted = 0; failed = 0; notes = [] }

let fail checks fmt =
  Printf.ksprintf
    (fun msg ->
      checks.failed <- checks.failed + 1;
      if List.length checks.notes < 20 then checks.notes <- msg :: checks.notes)
    fmt

let wal_dir = "_ivbench"

let wal_path phase =
  Filename.concat wal_dir (Printf.sprintf "%d-%s.wal" (Unix.getpid ()) (phase_name phase))

(* Run one phase with the workload's journal (if any), timing the whole
   call including opening and closing the journal file, between two
   reference ticks.  The journal file is deleted afterwards, outside the
   timing. *)
let timed_phase w runner speed phase f =
  let path = wal_path phase in
  let timed () =
    Speed.timed speed (fun () ->
        let journal = if w.Workloads.certify then Some (runner.open_journal path) else None in
        Fun.protect ~finally:(fun () -> Option.iter Journal.close journal) (fun () -> f journal))
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) timed

let check_phase w runner checks ~label ~net ~prop (run : Bab.run) =
  match run.Bab.verdict with
  | Bab.Disproved x ->
      if not (Analyzer.check_concrete net ~prop x) then fail checks "%s: counterexample fails check_concrete" label
  | Bab.Proved when w.Workloads.certify -> (
      match run.Bab.artifact with
      | None -> fail checks "%s: proved without an artifact" label
      | Some a -> (
          match runner.check_artifact a with
          | Ok _ -> ()
          | Error e -> fail checks "%s: artifact rejected: %s" label e))
  | Bab.Proved | Bab.Exhausted -> ()

let decided = function Bab.Proved | Bab.Disproved _ -> true | Bab.Exhausted -> false

let contradicts a b =
  match (a, b) with
  | Bab.Proved, Bab.Disproved _ | Bab.Disproved _, Bab.Proved -> true
  | _ -> false

type instance_result = { orig : outcome; base : outcome; ivan : outcome }

let outcome_of (run : Bab.run) (seconds, calibrated) =
  {
    seconds;
    calibrated;
    calls = run.Bab.stats.Bab.analyzer_calls;
    tree_size = Tree.size run.Bab.tree;
    verdict = run.Bab.verdict;
  }

(* Verify one instance through all three phases.  [pass] and [index]
   choose whether baseline or IVAN runs first. *)
let instance w runner checks ~speed ~pass ~index (f : Workloads.family) prop =
  let label phase = Printf.sprintf "%s/%s#%d/%s" w.Workloads.name f.Workloads.spec.Ivan_data.Zoo.name index (phase_name phase) in
  checks.attempted <- checks.attempted + 3;
  let orig_run, orig_s, orig_c =
    let prop = fresh prop in
    timed_phase w runner speed Original (fun journal -> runner.original ~net:f.Workloads.net ~prop ~journal)
  in
  runner.observe ~net:f.Workloads.net ~prop orig_run;
  check_phase w runner checks ~label:(label Original) ~net:f.Workloads.net ~prop orig_run;
  let updated phase technique =
    let prop = fresh prop in
    let run, s, c =
      timed_phase w runner speed phase (fun journal ->
          runner.updated ~technique ~original_run:orig_run ~net:f.Workloads.updated ~prop ~journal)
    in
    runner.observe ~net:f.Workloads.updated ~prop run;
    check_phase w runner checks ~label:(label phase) ~net:f.Workloads.updated ~prop run;
    outcome_of run (s, c)
  in
  let base, ivan =
    if (pass + index) mod 2 = 0 then
      let b = updated Baseline Ivan.Baseline in
      (b, updated Incremental Ivan.Full)
    else
      let i = updated Incremental Ivan.Full in
      (updated Baseline Ivan.Baseline, i)
  in
  if contradicts base.verdict ivan.verdict then
    fail checks "%s: IVAN verdict contradicts the from-scratch verdict" (label Incremental);
  { orig = outcome_of orig_run (orig_s, orig_c); base; ivan }

type pass = { results : instance_result list; speed : Speed.t }

(* Every instance of every family; an exception counts as one failed
   operation and the pass goes on without the instance. *)
let run w runner checks ~pass families =
  let speed = Speed.create () in
  let index = ref 0 in
  let results =
    List.concat_map
      (fun (f : Workloads.family) ->
        List.filter_map
          (fun prop ->
            let i = !index in
            incr index;
            try Some (instance w runner checks ~speed ~pass ~index:i f prop)
            with e ->
              fail checks "%s instance %d: exception %s" w.Workloads.name i (Printexc.to_string e);
              None)
          f.Workloads.props)
      families
  in
  { results; speed }

let calls field p = List.fold_left (fun acc r -> acc + (field r).calls) 0 p.results

(* Measured seconds of one phase over all instances of a pass. *)
let raw field p = List.fold_left (fun acc r -> acc +. (field r).seconds) 0.0 p.results

(* The same in calibrated seconds (see [Speed]). *)
let calibrated field p = List.fold_left (fun acc r -> acc +. (field r).calibrated) 0.0 p.results

let orig r = r.orig

let base r = r.base

let ivan r = r.ivan

let original_s = calibrated orig

let baseline_s = calibrated base

let ivan_s = calibrated ivan

(* Passes of the same code must do the same work, instance by instance. *)
let same_work checks ~reference p =
  if List.length reference.results <> List.length p.results then fail checks "pass lost instances"
  else
    List.iteri
      (fun i (a, b) ->
        List.iter
          (fun (phase, x, y) ->
            if x.calls <> y.calls || x.tree_size <> y.tree_size then
              fail checks "instance %d/%s: calls %d/%d tree %d/%d differ between passes" i (phase_name phase)
                x.calls y.calls x.tree_size y.tree_size)
          [ (Original, a.orig, b.orig); (Baseline, a.base, b.base); (Incremental, a.ivan, b.ivan) ])
      (List.combine reference.results p.results)
