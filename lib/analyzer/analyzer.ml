module Vec = Ivan_tensor.Vec
module Lp = Ivan_lp.Lp
module Network = Ivan_nn.Network
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Splits = Ivan_domains.Splits
module Bounds = Ivan_domains.Bounds
module Itv = Ivan_domains.Itv
module Interval_dom = Ivan_domains.Interval_dom
module Zonotope = Ivan_domains.Zonotope
module Deeppoly = Ivan_domains.Deeppoly
module Clock = Ivan_clock.Clock

type status = Verified | Counterexample of Vec.t | Unknown

type lp_report = {
  warm_hits : int;
  warm_misses : int;
  cold_solves : int;
  pivots : int;
}

type hint = {
  basis : Lp.Basis.t option;
  deeppoly : Deeppoly.prefix option;
  zonotope : Zonotope.prefix option;
}

let no_hint = { basis = None; deeppoly = None; zonotope = None }

let for_children ~split h =
  match split with
  | None -> { h with deeppoly = None; zonotope = None }
  | Some (r : Ivan_nn.Relu_id.t) ->
      let layers = r.layer + 1 in
      {
        h with
        deeppoly = Option.map (Deeppoly.truncate ~layers) h.deeppoly;
        zonotope = Option.map (Zonotope.truncate ~layers) h.zonotope;
      }

type outcome = {
  status : status;
  lb : float;
  bounds : Bounds.t option;
  zono : Zonotope.analysis option;
  cert : Ivan_cert.Cert.evidence option;
  lp : lp_report option;
  hint : hint;
}

type t = {
  name : string;
  run : ?hint:hint -> Network.t -> prop:Prop.t -> box:Box.t -> splits:Splits.t -> outcome;
}

let unknown =
  { status = Unknown; lb = neg_infinity; bounds = None; zono = None; cert = None; lp = None; hint = no_hint }

let vacuous = { unknown with status = Verified; lb = infinity }

(* Wrap an analyzer that takes no hint. *)
let hintless name run =
  { name; run = (fun ?hint:_ net ~prop ~box ~splits -> run net ~prop ~box ~splits) }

let instrument ~on_run t =
  {
    t with
    run =
      (fun ?hint net ~prop ~box ~splits ->
        let t0 = Clock.monotonic () in
        let outcome = t.run ?hint net ~prop ~box ~splits in
        on_run ~name:t.name ~elapsed:(Clock.monotonic () -. t0) ~outcome;
        outcome);
  }

let check_concrete net ~prop x =
  Box.contains prop.Prop.input x && Prop.margin prop (Network.forward net x) < 0.0

(* Try to promote a candidate point into a genuine counterexample. *)
let concrete_status net ~prop candidate =
  let x = Box.clamp prop.Prop.input candidate in
  if check_concrete net ~prop x then Counterexample x else Unknown

(* The LP work of one analyzer call, reported on its outcome.  Only
   called after a solve that returned (exceptions leave [last_stats]
   stale from some earlier solve of the same persistent problem). *)
let lp_report_of lp =
  Option.map
    (fun s ->
      let hits, misses, cold =
        match s.Lp.warm with
        | Lp.Warm_hit -> (1, 0, 0)
        | Lp.Warm_miss -> (0, 1, 0)
        | Lp.Cold -> (0, 0, 1)
      in
      {
        warm_hits = hits;
        warm_misses = misses;
        cold_solves = cold;
        pivots = s.Lp.pivots;
      })
    (Lp.last_stats lp)

(* ------------------------------------------------------------------ *)
(* Interval analyzer *)

let interval_run net ~prop ~box ~splits =
  match Interval_dom.analyze net ~box ~splits with
  | Interval_dom.Infeasible -> vacuous
  | Interval_dom.Feasible bounds ->
      let itv = Bounds.objective_itv bounds ~c:prop.Prop.c ~offset:prop.Prop.offset in
      let status = if itv.Itv.lo >= 0.0 then Verified else concrete_status net ~prop (Box.center box) in
      { unknown with status; lb = itv.Itv.lo; bounds = Some bounds }

let interval () = hintless "interval" interval_run

(* ------------------------------------------------------------------ *)
(* Zonotope analyzer *)

let zonotope_run net ~prop ~box ~splits =
  match Zonotope.analyze net ~box ~splits with
  | Zonotope.Infeasible -> vacuous
  | Zonotope.Feasible a ->
      let itv = Zonotope.objective_itv a ~c:prop.Prop.c ~offset:prop.Prop.offset in
      let status =
        if itv.Itv.lo >= 0.0 then Verified
        else concrete_status net ~prop (Zonotope.minimizing_input a ~c:prop.Prop.c)
      in
      { unknown with status; lb = itv.Itv.lo; bounds = Some a.Zonotope.bounds; zono = Some a }

(* The input-splitting analyzer: every node has a box of its own, so no
   analysis could ever be resumed and none is kept resumable. *)
let zonotope () = hintless "zonotope" zonotope_run

(* ------------------------------------------------------------------ *)
(* DeepPoly-only analyzer: back-substituted bounds without the LP pass.
   Middle rung of the degradation ladder — cheaper and numerically far
   simpler than {!lp_triangle}, tighter than {!interval}. *)

let deeppoly_run net ~prop ~box ~splits =
  match Deeppoly.analyze net ~box ~splits with
  | Deeppoly.Infeasible -> vacuous
  | Deeppoly.Feasible dp ->
      let bounds = Deeppoly.bounds dp in
      let lb = Deeppoly.objective_lo dp ~c:prop.Prop.c ~offset:prop.Prop.offset in
      let status = if lb >= 0.0 then Verified else concrete_status net ~prop (Box.center box) in
      { unknown with status; lb; bounds = Some bounds }

let deeppoly () = hintless "deeppoly" deeppoly_run

(* ------------------------------------------------------------------ *)
(* Persistent triangle-encoding cache.

   One encoding per (network, property) pair, rebuilt only when either
   changes — detected by physical equality, which is exactly right for
   the BaB engine (it holds one network and one property for a whole
   run and calls the analyzer once per node).  Per-domain so parallel
   runner workers each hold their own. *)

type tri_cache = { t_net : Network.t; t_prop : Prop.t; t_enc : Encoding.Triangle.t option }

let tri_slot : tri_cache option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let triangle_encoding net prop =
  let slot = Domain.DLS.get tri_slot in
  match !slot with
  | Some c when c.t_net == net && c.t_prop == prop -> c.t_enc
  | _ ->
      let enc = Encoding.Triangle.build net ~prop in
      slot := Some { t_net = net; t_prop = prop; t_enc = enc };
      enc

(* ------------------------------------------------------------------ *)
(* LP analyzer with triangle relaxation *)

(* Freeze the LP and pair it with the solver's multipliers, right after
   the solve and before any further mutation of the shared encoding.
   Extraction is float-only and untrusted; the exact checker in
   [Ivan_cert.Cert] decides whether the evidence actually proves
   anything. *)
let evidence_of lp ~const =
  match Lp.last_certificate lp with
  | None -> None
  | Some witness ->
      Some
        {
          Ivan_cert.Cert.const;
          snapshot = Ivan_cert.Cert.Snapshot.of_problem lp;
          witness;
        }

let lp_triangle_run ~deeppoly_shortcut ~certify ?(hint = no_hint) net ~prop ~box ~splits =
  match Deeppoly.analyze ?reuse:hint.deeppoly net ~box ~splits with
  | Deeppoly.Infeasible -> vacuous
  | Deeppoly.Feasible dp -> (
      let bounds = Deeppoly.bounds dp in
      (* Zonotope pass for branching scores (and a second bound). *)
      let zono =
        match Zonotope.analyze ?reuse:hint.zonotope ~resumable:true net ~box ~splits with
        | Zonotope.Infeasible -> None
        | Zonotope.Feasible a -> Some a
      in
      let handed =
        {
          no_hint with
          deeppoly = Some (Deeppoly.prefix dp);
          zonotope = Option.map (fun a -> a.Zonotope.prefix) zono;
        }
      in
      let dp_lb = Deeppoly.objective_lo dp ~c:prop.Prop.c ~offset:prop.Prop.offset in
      let zono_lb =
        match zono with
        | None -> neg_infinity
        | Some a -> (Zonotope.objective_itv a ~c:prop.Prop.c ~offset:prop.Prop.offset).Itv.lo
      in
      let cheap_lb = Float.max dp_lb zono_lb in
      let cheap = { unknown with bounds = Some bounds; zono; hint = handed } in
      if deeppoly_shortcut && cheap_lb >= 0.0 then { cheap with status = Verified; lb = cheap_lb }
      else
        (* Specialize the persistent per-property encoding to this node;
           fall back to a fresh one-shot LP when the node is outside the
           encoding's shape (e.g. a split on a root-stable unit when
           replaying a specification tree against an updated network). *)
        let lp, const, reusable =
          match triangle_encoding net prop with
          | Some enc -> (
              try
                Encoding.Triangle.specialize enc ~box ~splits ~bounds;
                (Encoding.Triangle.lp enc, Encoding.Triangle.const enc, true)
              with Encoding.Mismatch ->
                let lp, const = Encoding.build_lp net ~prop ~box ~splits ~bounds in
                (lp, const, false))
          | None ->
              let lp, const = Encoding.build_lp net ~prop ~box ~splits ~bounds in
              (lp, const, false)
        in
        let solved =
          try
            `Result
              (match hint.basis with
              | Some b when reusable -> Lp.solve_from lp b
              | _ -> Lp.solve lp)
          with Lp.Iteration_limit | Lp.Numerical_failure _ -> `Solver_failed
        in
        match solved with
        | `Solver_failed ->
            (* Numerical failure: fall back on the sound cheap bound. *)
            let status = if cheap_lb >= 0.0 then Verified else Unknown in
            { cheap with status; lb = cheap_lb }
        | `Result r -> (
            (* Only a persistent-encoding basis fits a child node: a
               one-shot LP's basis fits no other problem. *)
            let basis = if reusable then Lp.basis lp else None in
            let lp_done = { cheap with lp = lp_report_of lp; hint = { handed with basis } } in
            let cert = if certify then evidence_of lp ~const else None in
            match r with
            | Lp.Infeasible ->
                (* The relaxation is a superset of the true region, so an
                   infeasible relaxation proves the region empty. *)
                { lp_done with status = Verified; lb = infinity; cert }
            | Lp.Unbounded ->
                (* Cannot happen with a bounded input box, but stay sound. *)
                { lp_done with lb = cheap_lb }
            | Lp.Optimal { objective; primal; _ } ->
                let lb = Float.max (objective +. const) cheap_lb in
                if lb >= 0.0 then { lp_done with status = Verified; lb; cert }
                else
                  let candidate = Array.sub primal 0 (Box.dim box) in
                  { lp_done with status = concrete_status net ~prop candidate; lb }))

let lp_triangle ?(deeppoly_shortcut = true) ?(certify = false) () =
  (* A shortcut verdict has no LP behind it, hence no certificate. *)
  let deeppoly_shortcut = deeppoly_shortcut && not certify in
  { name = "lp-triangle"; run = lp_triangle_run ~deeppoly_shortcut ~certify }

(* ------------------------------------------------------------------ *)
(* Exact MILP analyzer: big-M indicator encoding of every ambiguous
   ReLU, solved by branch and bound over the phase binaries.  One call
   decides the subproblem exactly (the "one-shot complete verifier"
   style the paper compares against in its §7 MILP discussion). *)

type milp_outcome = {
  milp_status : status;
  milp_lb : float;
  nodes : int;
  lp_solves : int;
  witness : Vec.t option;
  milp_lp : lp_report option;
}

let milp_verify ?(max_nodes = 100_000) ?incumbent net ~prop ~box ~splits =
  match Deeppoly.analyze net ~box ~splits with
  | Deeppoly.Infeasible ->
      { milp_status = Verified; milp_lb = infinity; nodes = 0; lp_solves = 0; witness = None;
        milp_lp = None }
  | Deeppoly.Feasible dp -> (
      let bounds = Deeppoly.bounds dp in
      let lp, const, binaries = Encoding.build_milp net ~prop ~box ~splits ~bounds in
      (* Verification cutoff: branches that cannot push the objective
         below 0 cannot yield a counterexample, so the search always
         prunes at 0; a caller-supplied incumbent can only tighten the
         cutoff further (this is what "warm starting" amounts to). *)
      let cutoff = match incumbent with None -> 0.0 | Some v -> Float.min 0.0 v in
      let outcome (stats : Ivan_lp.Milp.stats) milp_status milp_lb witness =
        {
          milp_status;
          milp_lb;
          nodes = stats.Ivan_lp.Milp.nodes;
          lp_solves = stats.Ivan_lp.Milp.lp_solves;
          witness;
          milp_lp =
            Some
              {
                warm_hits = stats.Ivan_lp.Milp.warm_hits;
                warm_misses = 0;
                cold_solves = stats.Ivan_lp.Milp.lp_solves - stats.Ivan_lp.Milp.warm_hits;
                pivots = stats.Ivan_lp.Milp.simplex_pivots;
              };
        }
      in
      match Ivan_lp.Milp.solve ~max_nodes ~incumbent:(cutoff -. const) lp ~integer:binaries with
      | Ivan_lp.Milp.Infeasible stats ->
          (* Either the region is empty or nothing goes below the
             cutoff.  With the default cutoff 0 that proves the
             property; with a negative warm cutoff it only bounds the
             minimum from below. *)
          outcome stats (if cutoff >= 0.0 then Verified else Unknown) cutoff None
      | Ivan_lp.Milp.Node_limit stats | Ivan_lp.Milp.Solver_failure stats ->
          (* Capped or numerically failed search: inconclusive either
             way, never a fabricated answer. *)
          outcome stats Unknown neg_infinity None
      | Ivan_lp.Milp.Optimal { objective; primal; stats } ->
          let lb = objective +. const in
          let witness = Array.sub primal 0 (Box.dim box) in
          let status =
            if lb >= 0.0 then Verified
            else
              match concrete_status net ~prop witness with
              | Counterexample x -> Counterexample x
              | Verified | Unknown -> Unknown
          in
          outcome stats status lb (Some witness))

let milp_exact ?(max_nodes = 100_000) () =
  let run ?hint:_ net ~prop ~box ~splits =
    let o = milp_verify ~max_nodes net ~prop ~box ~splits in
    { unknown with status = o.milp_status; lb = o.milp_lb; lp = o.milp_lp }
  in
  { name = "milp-exact"; run }

(* ------------------------------------------------------------------ *)
(* Resilience: retry-then-degrade fallback chains *)

type policy = { max_retries : int; node_timeout : float; fallback : bool }

let default_policy = { max_retries = 1; node_timeout = infinity; fallback = true }

type fallback_event =
  | Retried of { analyzer : string; attempt : int; reason : string }
  | Fell_back of { analyzer : string; reason : string }
  | Absorbed of { analyzer : string; reason : string }

(* Conditions the resilience layer must never swallow: they signal the
   process itself is in trouble, not one analyzer call. *)
let fatal_exn = function Out_of_memory | Stack_overflow | Sys.Break -> true | _ -> false

(* An outcome produced under possible faults is only trusted when it
   cannot violate soundness: no NaN bound, [Verified] only with a
   non-negative bound, and counterexamples re-checked concretely (one
   forward pass — cheap next to any analysis). *)
let trustworthy net ~prop o =
  (not (Float.is_nan o.lb))
  &&
  match o.status with
  | Verified -> o.lb >= 0.0
  | Counterexample x -> check_concrete net ~prop x
  | Unknown -> true

let with_fallback ?chain ?(notify = fun (_ : fallback_event) -> ()) ~policy primary =
  if policy.max_retries < 0 then invalid_arg "Analyzer.with_fallback: negative max_retries";
  if policy.node_timeout <= 0.0 then invalid_arg "Analyzer.with_fallback: non-positive node_timeout";
  let chain =
    match chain with
    | Some c -> c
    | None ->
        if policy.fallback then
          List.filter (fun a -> a.name <> primary.name) [ deeppoly (); interval () ]
        else []
  in
  let run ?hint net ~prop ~box ~splits =
    (* Monotonic deadline: a wall-clock step (NTP) must not extend or
       shrink a node budget. *)
    let deadline =
      if policy.node_timeout < infinity then Clock.monotonic () +. policy.node_timeout
      else infinity
    in
    let timed_out () = deadline < infinity && Clock.monotonic () >= deadline in
    (* Try one analyzer with up to [max_retries] re-attempts.  The
       timeout is cooperative: analyzers are not preempted mid-call, but
       no further attempt starts past the deadline.  Only the first
       attempt of the primary sees the basis hint: a retry runs cold
       rather than re-use a hint that may have caused the failure. *)
    let rec attempt ?hint a k =
      let result =
        try `Outcome (a.run ?hint net ~prop ~box ~splits)
        with e -> if fatal_exn e then raise e else `Raised (Printexc.to_string e)
      in
      let failure =
        match result with
        | `Outcome o when trustworthy net ~prop o -> None
        | `Outcome _ -> Some "untrustworthy outcome (NaN or unsound bound)"
        | `Raised msg -> Some msg
      in
      match failure with
      | None -> ( match result with `Outcome o -> `Ok o | `Raised _ -> assert false)
      | Some reason ->
          notify (Absorbed { analyzer = a.name; reason });
          if k < policy.max_retries && not (timed_out ()) then begin
            notify (Retried { analyzer = a.name; attempt = k + 1; reason });
            attempt a (k + 1)
          end
          else `Failed reason
    in
    let rec try_chain ?hint = function
      | [] -> unknown
      | a :: rest -> (
          match attempt ?hint a 0 with
          | `Ok o ->
              if a.name <> primary.name then
                notify (Fell_back { analyzer = a.name; reason = "degraded from " ^ primary.name });
              o
          | `Failed _ -> if timed_out () then unknown else try_chain rest)
    in
    try_chain ?hint (primary :: chain)
  in
  { name = primary.name; run }
