module Mat = Ivan_tensor.Mat
module Lp = Ivan_lp.Lp
module Network = Ivan_nn.Network
module Layer = Ivan_nn.Layer
module Relu_id = Ivan_nn.Relu_id
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Splits = Ivan_domains.Splits
module Bounds = Ivan_domains.Bounds
module Deeppoly = Ivan_domains.Deeppoly

exception Mismatch

(* Linear expressions over the LP variables: dense coefficient array
   plus a constant. *)
type expr = { coeffs : float array; const : float }

let sparse_terms coeffs =
  let acc = ref [] in
  for j = Array.length coeffs - 1 downto 0 do
    if coeffs.(j) <> 0.0 then acc := (j, coeffs.(j)) :: !acc
  done;
  !acc

(* Sparse (indices, coefficients) arrays of an expression — the form
   {!Lp.add_row} / {!Lp.set_row} consume directly. *)
let sparse_arrays coeffs =
  let nnz = ref 0 in
  Array.iter (fun c -> if c <> 0.0 then incr nnz) coeffs;
  let idx = Array.make !nnz 0 in
  let cf = Array.make !nnz 0.0 in
  let k = ref 0 in
  Array.iteri
    (fun j c ->
      if c <> 0.0 then begin
        idx.(!k) <- j;
        cf.(!k) <- c;
        incr k
      end)
    coeffs;
  (idx, cf)

(* A piecewise unit is stable under [bounds] when they fix its phase;
   an unstable one (ambiguous, or with NaN bounds) needs an LP
   variable. *)
let stable bounds li idx =
  let b = bounds.Bounds.layers.(li) in
  b.Bounds.pre_lo.(idx) >= 0.0 || b.Bounds.pre_hi.(idx) <= 0.0

(* Count the extra LP variables needed: one per piecewise unit
   [encoded li idx] selects, and one error variable per smooth unit. *)
let count_extra_vars net ~encoded =
  let total = ref 0 in
  Array.iteri
    (fun li layer ->
      match Layer.classify (Layer.activation layer) with
      | Layer.Linear_activation -> ()
      | Layer.Smooth _ -> total := !total + Layer.output_dim layer
      | Layer.Piecewise _ ->
          for idx = 0 to Layer.output_dim layer - 1 do
            if encoded li idx then incr total
          done)
    (Network.layers net);
  !total

(* Affine image of per-neuron expressions under (w, b).  Hot path:
   iterate raw weight rows and skip structural zeros (conv-lowered rows
   are sparse). *)
let affine_exprs nvars w b exprs =
  let cols = Mat.cols w in
  Array.init (Mat.rows w) (fun i ->
      let row = Mat.row w i in
      let coeffs = Array.make nvars 0.0 in
      let const = ref b.(i) in
      for j = 0 to cols - 1 do
        let wij = row.(j) in
        if wij <> 0.0 then begin
          let e = exprs.(j) in
          const := !const +. (wij *. e.const);
          let ec = e.coeffs in
          for v = 0 to nvars - 1 do
            let c = ec.(v) in
            if c <> 0.0 then coeffs.(v) <- coeffs.(v) +. (wij *. c)
          done
        end
      done;
      { coeffs; const = !const })

(* Dense objective vector and constant for [c . outputs + offset]. *)
let objective_of nvars exprs ~c ~offset =
  let obj = Array.make nvars 0.0 in
  let const = ref offset in
  Array.iteri
    (fun i ci ->
      if ci <> 0.0 then begin
        let e = exprs.(i) in
        const := !const +. (ci *. e.const);
        for v = 0 to nvars - 1 do
          obj.(v) <- obj.(v) +. (ci *. e.coeffs.(v))
        done
      end)
    c;
  (obj, !const)

(* Unit-coefficient expressions for the input variables. *)
let input_exprs nvars d =
  Array.init d (fun j ->
      let coeffs = Array.make nvars 0.0 in
      coeffs.(j) <- 1.0;
      { coeffs; const = 0.0 })

let var_expr nvars v =
  let coeffs = Array.make nvars 0.0 in
  coeffs.(v) <- 1.0;
  { coeffs; const = 0.0 }

let scale_expr s e = { coeffs = Array.map (fun c -> s *. c) e.coeffs; const = s *. e.const }

(* ------------------------------------------------------------------ *)
(* One-shot big-M MILP: one call decides a subproblem, so there is
   nothing to persist across calls. *)

let build_milp net ~prop ~box ~splits ~bounds =
  let d = Box.dim box in
  let ambiguous =
    count_extra_vars net ~encoded:(fun li idx ->
        (not (stable bounds li idx)) && not (Splits.mem (Relu_id.make ~layer:li ~index:idx) splits))
  in
  (* Inputs, then (v, z) pairs per ambiguous ReLU. *)
  let nvars = d + (2 * ambiguous) in
  let lp = Lp.create nvars in
  for j = 0 to d - 1 do
    Lp.set_bounds lp j (Box.lo_at box j) (Box.hi_at box j)
  done;
  let next_var = ref d in
  let binaries = ref [] in
  let exprs = ref (input_exprs nvars d) in
  let layers = Network.layers net in
  Array.iteri
    (fun li layer ->
      let w, b = Layer.dense_affine layer in
      let pre = affine_exprs nvars w b !exprs in
      let dim = Array.length pre in
      match Layer.classify (Layer.activation layer) with
      | Layer.Linear_activation -> exprs := pre
      | Layer.Smooth _ -> invalid_arg "Analyzer.milp: only plain ReLU networks are supported"
      | Layer.Piecewise slope ->
          if slope <> 0.0 then
            invalid_arg "Analyzer.milp: only plain ReLU networks are supported";
          let lb = bounds.Bounds.layers.(li).Bounds.pre_lo in
          let ub = bounds.Bounds.layers.(li).Bounds.pre_hi in
          let zero_expr = { coeffs = Array.make nvars 0.0; const = 0.0 } in
          let post =
            Array.init dim (fun idx ->
                let e = pre.(idx) in
                let phase = Splits.find (Relu_id.make ~layer:li ~index:idx) splits in
                match phase with
                | Some Splits.Pos ->
                    Lp.add_constraint lp
                      (sparse_terms (Array.map (fun v -> -.v) e.coeffs))
                      Lp.Le e.const;
                    e
                | Some Splits.Neg ->
                    Lp.add_constraint lp (sparse_terms e.coeffs) Lp.Le (-.e.const);
                    zero_expr
                | None ->
                    if lb.(idx) >= 0.0 then e
                    else if ub.(idx) <= 0.0 then zero_expr
                    else begin
                      (* v = relu(pre) with indicator z:
                         v >= 0, v >= pre, v <= pre - l(1-z), v <= u z. *)
                      let v = !next_var in
                      let z = !next_var + 1 in
                      next_var := !next_var + 2;
                      binaries := z :: !binaries;
                      let l = lb.(idx) and u = ub.(idx) in
                      Lp.set_bounds lp v 0.0 u;
                      Lp.set_bounds lp z 0.0 1.0;
                      (* pre - v <= 0 *)
                      Lp.add_constraint lp ((v, -1.0) :: sparse_terms e.coeffs) Lp.Le (-.e.const);
                      (* v - pre - l z <= -l *)
                      Lp.add_constraint lp
                        ((v, 1.0) :: (z, -.l) :: sparse_terms (Array.map (fun c -> -.c) e.coeffs))
                        Lp.Le (-.l +. e.const);
                      (* v - u z <= 0 *)
                      Lp.add_constraint lp [ (v, 1.0); (z, -.u) ] Lp.Le 0.0;
                      let coeffs = Array.make nvars 0.0 in
                      coeffs.(v) <- 1.0;
                      { coeffs; const = 0.0 }
                    end)
          in
          exprs := post)
    layers;
  let obj, const = objective_of nvars !exprs ~c:prop.Prop.c ~offset:prop.Prop.offset in
  Lp.set_objective lp obj;
  (lp, const, List.rev !binaries)

(* ------------------------------------------------------------------ *)
(* Triangle-relaxation encoding.

   One layer walker lays out the LP for a (box, splits, bounds) triple:
   every piecewise unit that is split, or not stable under [bounds],
   gets a permanent LP variable [v] and four permanent row slots whose
   coefficients {!Triangle.specialize} rewrites per node:

     A:  pre - v <= 0                (v >= pre)
     B:  v - lambda*pre <= mu        (chord / upper equality side)
     C:  slope*pre - v <= 0          (v >= slope*pre)
     D:  +/- pre <= 0                (the node's split assumption)

   and every other piecewise unit is substituted away by its stable
   phase.  Unused slots become vacuous all-zero rows.

   Laid out once per (network, property) from the root DeepPoly bounds,
   the encoding is then specialized per BaB node by mutating only
   variable bounds and the rows of the affected units — no expression
   recomputation, no fresh LP.  This works because stability is
   monotone under subproblem tightening: a unit stable at the root
   stays stable (same phase) at every node.  The fixed shape is also
   what makes warm starts work: a parent's {!Lp.Basis.t} maps 1:1 onto
   every child's problem.  A node the root layout cannot express is
   laid out alone ({!build_lp}). *)

type punit = {
  var : int;
  relu : Relu_id.t;
  li : int;
  idx : int;
  slope : float;
  pre_const : float;
  pre_idx : int array;
  pre_cf : float array;
  row_a : int;
  row_b : int;
  row_c : int;
  row_d : int;
  vrow_idx : int array;  (* [| var; pre vars... |], shared by rows A-C *)
  scratch : float array;  (* coefficient scratch, len 1 + nnz(pre) *)
  d_scratch : float array;  (* split-row scratch, len nnz(pre) *)
}

type sunit = {
  svar : int;
  sli : int;
  sidx : int;
  sf : float -> float;
  sdf : float -> float;
  spre_const : float;
  spre_idx : int array;
  spre_cf : float array;
  row_hi : int;
  row_lo : int;
  svrow_idx : int array;
  sscratch : float array;
}

module Triangle = struct
  type t = {
    net : Network.t;
    prop : Prop.t;
    lp : Lp.problem;
    const : float;
    d : int;
    punits : punit array;
    sunits : sunit array;
    encoded : Relu_id.Set.t;
  }

  let lp t = t.lp

  let const t = t.const

  (* The layer walker: lay out the encoding of every unit that is
     split or not stable under [bounds]. *)
  let layout net ~prop ~box ~splits ~bounds =
    let d = Box.dim box in
    let gets_var li idx =
      (not (stable bounds li idx)) || Splits.mem (Relu_id.make ~layer:li ~index:idx) splits
    in
    let nvars = d + count_extra_vars net ~encoded:gets_var in
    let lp = Lp.create nvars in
    for j = 0 to d - 1 do
      Lp.set_bounds lp j (Box.lo_at box j) (Box.hi_at box j)
    done;
    let next_var = ref d in
    let punits = ref [] in
    let sunits = ref [] in
    let exprs = ref (input_exprs nvars d) in
    let layers = Network.layers net in
    Array.iteri
      (fun li layer ->
        let w, b = Layer.dense_affine layer in
        let pre = affine_exprs nvars w b !exprs in
        let dim = Array.length pre in
        match Layer.classify (Layer.activation layer) with
        | Layer.Linear_activation -> exprs := pre
        | Layer.Smooth { f; df } ->
            let post =
              Array.init dim (fun idx ->
                  let e = pre.(idx) in
                  let v = !next_var in
                  incr next_var;
                  let pre_idx, pre_cf = sparse_arrays e.coeffs in
                  let svrow_idx = Array.append [| v |] pre_idx in
                  let row_hi = Lp.add_row lp [||] [||] Lp.Le 0.0 in
                  let row_lo = Lp.add_row lp [||] [||] Lp.Ge 0.0 in
                  sunits :=
                    {
                      svar = v;
                      sli = li;
                      sidx = idx;
                      sf = f;
                      sdf = df;
                      spre_const = e.const;
                      spre_idx = pre_idx;
                      spre_cf = pre_cf;
                      row_hi;
                      row_lo;
                      svrow_idx;
                      sscratch = Array.make (Array.length svrow_idx) 0.0;
                    }
                    :: !sunits;
                  var_expr nvars v)
            in
            exprs := post
        | Layer.Piecewise slope ->
            let lb = bounds.Bounds.layers.(li).Bounds.pre_lo in
            let post =
              Array.init dim (fun idx ->
                  let e = pre.(idx) in
                  if not (gets_var li idx) then
                    if lb.(idx) >= 0.0 then e else scale_expr slope e
                  else begin
                    let v = !next_var in
                    incr next_var;
                    let pre_idx, pre_cf = sparse_arrays e.coeffs in
                    let vrow_idx = Array.append [| v |] pre_idx in
                    let row_a = Lp.add_row lp [||] [||] Lp.Le 0.0 in
                    let row_b = Lp.add_row lp [||] [||] Lp.Le 0.0 in
                    let row_c = Lp.add_row lp [||] [||] Lp.Le 0.0 in
                    let row_d = Lp.add_row lp [||] [||] Lp.Le 0.0 in
                    punits :=
                      {
                        var = v;
                        relu = Relu_id.make ~layer:li ~index:idx;
                        li;
                        idx;
                        slope;
                        pre_const = e.const;
                        pre_idx;
                        pre_cf;
                        row_a;
                        row_b;
                        row_c;
                        row_d;
                        vrow_idx;
                        scratch = Array.make (Array.length vrow_idx) 0.0;
                        d_scratch = Array.make (Array.length pre_idx) 0.0;
                      }
                      :: !punits;
                    var_expr nvars v
                  end)
            in
            exprs := post)
      layers;
    let obj, const = objective_of nvars !exprs ~c:prop.Prop.c ~offset:prop.Prop.offset in
    Lp.set_objective lp obj;
    let punits = Array.of_list (List.rev !punits) in
    let sunits = Array.of_list (List.rev !sunits) in
    let encoded =
      Array.fold_left (fun acc u -> Relu_id.Set.add u.relu acc) Relu_id.Set.empty punits
    in
    { net; prop; lp; const; d; punits; sunits; encoded }

  let build net ~prop =
    let box = prop.Prop.input in
    match Deeppoly.analyze net ~box ~splits:Splits.empty with
    | Deeppoly.Infeasible -> None
    | Deeppoly.Feasible dp ->
        Some (layout net ~prop ~box ~splits:Splits.empty ~bounds:(Deeppoly.bounds dp))

  let encodes t net ~prop = t.net == net && t.prop == prop

  (* Write a vacuous all-zero row into a slot (0 <= 0). *)
  let vacuous lp row = Lp.set_row lp row [||] [||] Lp.Le 0.0

  (* Row over [var; pre...]: scale*pre + vcoeff*v <= rhs. *)
  let set_vrow lp row vrow_idx scratch pre_cf ~vcoeff ~scale ~rhs =
    scratch.(0) <- vcoeff;
    for k = 0 to Array.length pre_cf - 1 do
      scratch.(k + 1) <- scale *. pre_cf.(k)
    done;
    Lp.set_row lp row vrow_idx scratch Lp.Le rhs

  let specialize t ~box ~splits ~bounds =
    if Box.dim box <> t.d then raise Mismatch;
    List.iter
      (fun (id, _) -> if not (Relu_id.Set.mem id t.encoded) then raise Mismatch)
      (Splits.bindings splits);
    for j = 0 to t.d - 1 do
      Lp.set_bounds t.lp j (Box.lo_at box j) (Box.hi_at box j)
    done;
    Array.iter
      (fun u ->
        let l = bounds.Bounds.layers.(u.li).Bounds.pre_lo.(u.idx) in
        let h = bounds.Bounds.layers.(u.li).Bounds.pre_hi.(u.idx) in
        if Float.is_nan l || Float.is_nan h || l > h then raise Mismatch;
        let s = u.slope in
        let lp = t.lp in
        let a_active () =
          (* A: pre - v <= 0 *)
          set_vrow lp u.row_a u.vrow_idx u.scratch u.pre_cf ~vcoeff:(-1.0) ~scale:1.0
            ~rhs:(-.u.pre_const)
        in
        let b_chord lambda mu =
          (* B: v - lambda*pre <= mu *)
          set_vrow lp u.row_b u.vrow_idx u.scratch u.pre_cf ~vcoeff:1.0 ~scale:(-.lambda)
            ~rhs:(mu +. (lambda *. u.pre_const))
        in
        let c_active () =
          (* C: slope*pre - v <= 0 *)
          set_vrow lp u.row_c u.vrow_idx u.scratch u.pre_cf ~vcoeff:(-1.0) ~scale:s
            ~rhs:(-.s *. u.pre_const)
        in
        let d_split sign =
          (* D: sign*pre <= 0 *)
          for k = 0 to Array.length u.pre_cf - 1 do
            u.d_scratch.(k) <- sign *. u.pre_cf.(k)
          done;
          Lp.set_row lp u.row_d u.pre_idx u.d_scratch Lp.Le (-.sign *. u.pre_const)
        in
        (* Even when rows pin [v] exactly (v = pre or v = slope*pre),
           give it the finite bounds those rows imply rather than
           leaving it free: the feasible set is unchanged, but dual
           certificates need finite variable bounds to absorb the float
           residue of reduced costs — a free variable with a nonzero
           exact reduced cost would imply a bound of -inf and the proof
           checker would have to reject the certificate. *)
        let bound_var lo hi = Lp.set_bounds lp u.var lo hi in
        match Splits.find u.relu splits with
        | Some Splits.Pos ->
            (* v = pre on this side, plus the assumption pre >= 0. *)
            a_active ();
            b_chord 1.0 0.0;
            vacuous lp u.row_c;
            d_split (-1.0);
            bound_var (Float.max l 0.0) (Float.max h 0.0)
        | Some Splits.Neg ->
            (* v = slope*pre, plus pre <= 0. *)
            vacuous lp u.row_a;
            if s > 0.0 then begin
              b_chord s 0.0;
              c_active ();
              bound_var (s *. Float.min l 0.0) (s *. Float.min h 0.0)
            end
            else begin
              vacuous lp u.row_b;
              vacuous lp u.row_c;
              Lp.set_bounds lp u.var 0.0 0.0
            end;
            d_split 1.0
        | None ->
            if l >= 0.0 then begin
              (* Stable-positive at this node: v = pre exactly. *)
              a_active ();
              b_chord 1.0 0.0;
              vacuous lp u.row_c;
              vacuous lp u.row_d;
              bound_var l h
            end
            else if h <= 0.0 then begin
              (* Stable-negative: v = slope*pre exactly. *)
              vacuous lp u.row_a;
              if s > 0.0 then begin
                b_chord s 0.0;
                c_active ();
                bound_var (s *. l) (s *. h)
              end
              else begin
                vacuous lp u.row_b;
                vacuous lp u.row_c;
                Lp.set_bounds lp u.var 0.0 0.0
              end;
              vacuous lp u.row_d
            end
            else begin
              (* Ambiguous: the triangle relaxation. *)
              a_active ();
              let lambda = (h -. (s *. l)) /. (h -. l) in
              let mu = l *. (s -. lambda) in
              b_chord lambda mu;
              if s > 0.0 then c_active () else vacuous lp u.row_c;
              vacuous lp u.row_d;
              Lp.set_bounds lp u.var (s *. l) h
            end)
      t.punits;
    Array.iter
      (fun u ->
        let l = bounds.Bounds.layers.(u.sli).Bounds.pre_lo.(u.sidx) in
        let h = bounds.Bounds.layers.(u.sli).Bounds.pre_hi.(u.sidx) in
        if Float.is_nan l || Float.is_nan h || l > h then raise Mismatch;
        let lambda = Float.min (u.sdf l) (u.sdf h) in
        let g_lo = u.sf l -. (lambda *. l) in
        let g_hi = u.sf h -. (lambda *. h) in
        (* v - lambda*pre within the sandwich [g_lo, g_hi]. *)
        u.sscratch.(0) <- 1.0;
        for k = 0 to Array.length u.spre_cf - 1 do
          u.sscratch.(k + 1) <- -.lambda *. u.spre_cf.(k)
        done;
        Lp.set_row t.lp u.row_hi u.svrow_idx u.sscratch Lp.Le (g_hi +. (lambda *. u.spre_const));
        Lp.set_row t.lp u.row_lo u.svrow_idx u.sscratch Lp.Ge (g_lo +. (lambda *. u.spre_const));
        (* Finite bounds implied by the sandwich rows and pre in [l, h]
           (same rationale as the piecewise units above: free variables
           make dual certificates uncheckable). *)
        let lo_p = Float.min (lambda *. l) (lambda *. h)
        and hi_p = Float.max (lambda *. l) (lambda *. h) in
        Lp.set_bounds t.lp u.svar
          (lo_p +. Float.min g_lo g_hi)
          (hi_p +. Float.max g_lo g_hi))
      t.sunits
end

let build_lp net ~prop ~box ~splits ~bounds =
  let t = Triangle.layout net ~prop ~box ~splits ~bounds in
  Triangle.specialize t ~box ~splits ~bounds;
  (Triangle.lp t, Triangle.const t)
