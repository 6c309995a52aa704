(* Stage replay: re-execute every node a traced BaB run bounded, through
   the public stages the workload's analyzer is made of, and time each
   stage.

   For the LP-triangle analyzer the stages are DeepPoly, Zonotope, the
   cheap-bound shortcut, the per-property encoding (build once,
   specialize per node, or a one-shot LP on [Encoding.Mismatch]), the
   simplex (warm-started from the parent's replayed basis exactly when
   the engine would have offered one), the certificate snapshot and the
   concrete counterexample check.  For the zonotope analyzer they are
   Zonotope and the concrete check.

   A replay is only trusted when every node reproduces the lower bound
   the run recorded in its tree, bit for bit. *)

module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Bounds = Ivan_domains.Bounds
module Itv = Ivan_domains.Itv
module Deeppoly = Ivan_domains.Deeppoly
module Zonotope = Ivan_domains.Zonotope
module Lp = Ivan_lp.Lp
module Encoding = Ivan_analyzer.Encoding
module Analyzer = Ivan_analyzer.Analyzer
module Tree = Ivan_spectree.Tree
module Trace = Ivan_bab.Trace
module Bab = Ivan_bab.Bab
module Cert = Ivan_cert.Cert

type t = {
  mutable nodes : int;
  mutable mismatches : int;  (** nodes whose replayed bound differs from the recorded one *)
  mutable lp_free : int;  (** nodes decided without solving an LP *)
  mutable deeppoly_calls : int;
  mutable deeppoly_s : float;
  mutable ambiguous_relus : int;  (** summed over DeepPoly-feasible nodes *)
  mutable zonotope_calls : int;
  mutable zonotope_s : float;
  mutable zonotope_tighter : int;  (** zonotope bound above the bound it competes with *)
  mutable zonotope_decisive : int;  (** zonotope bound alone decides the node *)
  mutable encoding_build_s : float;
  mutable encoding_specialize_s : float;
  mutable specializations : int;
  mutable encoding_mismatches : int;
  mutable lp_solves : int;
  mutable lp_s : float;
  mutable snapshot_s : float;
  mutable concrete_s : float;
}

let create () =
  {
    nodes = 0;
    mismatches = 0;
    lp_free = 0;
    deeppoly_calls = 0;
    deeppoly_s = 0.0;
    ambiguous_relus = 0;
    zonotope_calls = 0;
    zonotope_s = 0.0;
    zonotope_tighter = 0;
    zonotope_decisive = 0;
    encoding_build_s = 0.0;
    encoding_specialize_s = 0.0;
    specializations = 0;
    encoding_mismatches = 0;
    lp_solves = 0;
    lp_s = 0.0;
    snapshot_s = 0.0;
    concrete_s = 0.0;
  }

(* Seconds spent in the analyzer's stages, as replayed. *)
let stage_sum r =
  r.deeppoly_s +. r.zonotope_s +. r.encoding_build_s +. r.encoding_specialize_s +. r.lp_s +. r.snapshot_s
  +. r.concrete_s

let timed = Ivan_clock.Clock.timed

let concrete r net ~prop candidate =
  let _, s = timed (fun () -> Analyzer.check_concrete net ~prop (Box.clamp prop.Prop.input candidate)) in
  r.concrete_s <- r.concrete_s +. s

(* Mirror of [Analyzer.lp_triangle]: returns the node's bound and the
   basis its children would be offered. *)
let lp_triangle_node r ~certify ~encoding ~hint net ~prop ~box ~splits =
  let c = prop.Prop.c and offset = prop.Prop.offset in
  let dp, s = timed (fun () -> Deeppoly.analyze net ~box ~splits) in
  r.deeppoly_calls <- r.deeppoly_calls + 1;
  match dp with
  | Deeppoly.Infeasible ->
      r.deeppoly_s <- r.deeppoly_s +. s;
      r.lp_free <- r.lp_free + 1;
      (infinity, None)
  | Deeppoly.Feasible dp -> (
      let dp_lb, s' = timed (fun () -> (Deeppoly.objective_itv dp ~c ~offset).Itv.lo) in
      r.deeppoly_s <- r.deeppoly_s +. s +. s';
      let bounds = Deeppoly.bounds dp in
      r.ambiguous_relus <- r.ambiguous_relus + List.length (Bounds.ambiguous_relus bounds net ~splits);
      let zono_lb, s =
        timed (fun () ->
            match Zonotope.analyze net ~box ~splits with
            | Zonotope.Infeasible -> neg_infinity
            | Zonotope.Feasible a -> (Zonotope.objective_itv a ~c ~offset).Itv.lo)
      in
      r.zonotope_calls <- r.zonotope_calls + 1;
      r.zonotope_s <- r.zonotope_s +. s;
      if zono_lb > dp_lb then r.zonotope_tighter <- r.zonotope_tighter + 1;
      if zono_lb >= 0.0 && dp_lb < 0.0 then r.zonotope_decisive <- r.zonotope_decisive + 1;
      let cheap_lb = Float.max dp_lb zono_lb in
      (* The analyzer turns the shortcut off under certification. *)
      if (not certify) && cheap_lb >= 0.0 then begin
        r.lp_free <- r.lp_free + 1;
        (cheap_lb, None)
      end
      else
        let one_shot () =
          let (lp, const), s = timed (fun () -> Encoding.build_lp net ~prop ~box ~splits ~bounds) in
          r.encoding_build_s <- r.encoding_build_s +. s;
          (lp, const, false)
        in
        let enc =
          match !encoding with
          | Some e -> e
          | None ->
              let e, s = timed (fun () -> Encoding.Triangle.build net ~prop) in
              r.encoding_build_s <- r.encoding_build_s +. s;
              encoding := Some e;
              e
        in
        let lp, const, reusable =
          match enc with
          | None -> one_shot ()
          | Some e -> (
              r.specializations <- r.specializations + 1;
              let specialized, s =
                timed (fun () ->
                    try
                      Encoding.Triangle.specialize e ~box ~splits ~bounds;
                      true
                    with Encoding.Mismatch -> false)
              in
              r.encoding_specialize_s <- r.encoding_specialize_s +. s;
              if specialized then (Encoding.Triangle.lp e, Encoding.Triangle.const e, true)
              else begin
                r.encoding_mismatches <- r.encoding_mismatches + 1;
                one_shot ()
              end)
        in
        let solved, s =
          timed (fun () ->
              try
                `Result
                  (match hint with
                  | Some b when reusable -> Lp.solve_from lp b
                  | _ -> Lp.solve lp)
              with Lp.Iteration_limit | Lp.Numerical_failure _ -> `Solver_failed)
        in
        r.lp_solves <- r.lp_solves + 1;
        r.lp_s <- r.lp_s +. s;
        match solved with
        | `Solver_failed -> (cheap_lb, None)
        | `Result result -> (
            let basis = if reusable then Lp.basis lp else None in
            if certify then begin
              let _, s =
                timed (fun () ->
                    match Lp.last_certificate lp with
                    | None -> ()
                    | Some _ -> ignore (Cert.Snapshot.of_problem lp))
              in
              r.snapshot_s <- r.snapshot_s +. s
            end;
            match result with
            | Lp.Infeasible -> (infinity, basis)
            | Lp.Unbounded -> (cheap_lb, basis)
            | Lp.Optimal { objective; primal; _ } ->
                let lb = Float.max (objective +. const) cheap_lb in
                if lb < 0.0 then concrete r net ~prop (Array.sub primal 0 (Box.dim box));
                (lb, basis)))

(* Mirror of [Analyzer.zonotope].  Its competitor for [tighter] and
   [decisive] is the interval bound of the zonotope's own output
   bounds. *)
let zonotope_node r net ~prop ~box ~splits =
  let c = prop.Prop.c and offset = prop.Prop.offset in
  r.lp_free <- r.lp_free + 1;
  let z, s =
    timed (fun () ->
        match Zonotope.analyze net ~box ~splits with
        | Zonotope.Infeasible -> None
        | Zonotope.Feasible a -> Some (a, (Zonotope.objective_itv a ~c ~offset).Itv.lo))
  in
  r.zonotope_calls <- r.zonotope_calls + 1;
  r.zonotope_s <- r.zonotope_s +. s;
  match z with
  | None -> infinity
  | Some (a, lb) ->
      let interval_lb = (Bounds.objective_itv a.Zonotope.bounds ~c ~offset).Itv.lo in
      if lb > interval_lb then r.zonotope_tighter <- r.zonotope_tighter + 1;
      if lb >= 0.0 && interval_lb < 0.0 then r.zonotope_decisive <- r.zonotope_decisive + 1;
      if lb < 0.0 then concrete r net ~prop (Zonotope.minimizing_input a ~c);
      lb

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Replay one run from its event stream, in the order the engine
   analyzed the nodes. *)
let run r (w : Workloads.t) ~net ~prop (result : Bab.run) events =
  let by_id = Hashtbl.create 256 in
  Tree.iter_nodes result.Bab.tree (fun n -> Hashtbl.replace by_id (Tree.node_id n) n);
  let children = Hashtbl.create 256 in
  List.iter
    (function Trace.Split { node; left; right; _ } -> Hashtbl.replace children node (left, right) | _ -> ())
    events;
  let offered = Hashtbl.create 256 in
  let encoding = ref None in
  List.iter
    (function
      | Trace.Analyzed { node; _ } ->
          let n = Hashtbl.find by_id node in
          let box, splits = Tree.subproblem ~root_box:prop.Prop.input n in
          let lb, basis =
            match w.Workloads.kind with
            | Workloads.Relu ->
                let hint = Hashtbl.find_opt offered node in
                lp_triangle_node r ~certify:w.Workloads.certify ~encoding ~hint net ~prop ~box ~splits
            | Workloads.Acas -> (zonotope_node r net ~prop ~box ~splits, None)
          in
          r.nodes <- r.nodes + 1;
          if not (same_bits lb (Tree.lb n)) then r.mismatches <- r.mismatches + 1;
          (match (basis, Hashtbl.find_opt children node) with
          | Some b, Some (left, right) ->
              Hashtbl.replace offered left b;
              Hashtbl.replace offered right b
          | _ -> ())
      | _ -> ())
    events
