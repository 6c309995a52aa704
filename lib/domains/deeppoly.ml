module Vec = Ivan_tensor.Vec
module Mat = Ivan_tensor.Mat
module Network = Ivan_nn.Network
module Layer = Ivan_nn.Layer
module Relu_id = Ivan_nn.Relu_id
module Box = Ivan_spec.Box

(* Symbolic post-activation bounds of one layer, expressed over the
   previous layer's post-activations (the input for layer 0):
   lw x + lb <= post <= uw x + ub, row per neuron.  Stored as raw row
   arrays — this module is the analyzer stack's hot path.  Rows are
   read-only once built, so they are shared freely: a neuron whose two
   bounds are the same line holds one row in [lw] and [uw], a line of
   slope 1 is the layer's weight row itself, and a resumed
   analysis holds its donor's rows. *)
type sym = { lw : float array array; lconst : Vec.t; uw : float array array; uconst : Vec.t }

type analysis = { net : Network.t; box : Box.t; splits : Splits.t; syms : sym array; bounds : Bounds.t }

(* An analysis, or its first layers only: what a later run resumes
   from. *)
type prefix = analysis

type result = Feasible of analysis | Infeasible

exception Empty_region

(* One back-substitution step: rewrite the expression rows (w, c) over
   layer [k]'s posts into rows over layer [k-1]'s posts using layer
   [k]'s symbolic bounds.  [lower] selects which bound a positive
   coefficient takes.  The rows of [w'] start at [+0.] and only receive
   additions, so {!Vec.axpy} needs no zero test per entry. *)
let step ~lower sym w c =
  let rows = Array.length w in
  let inner = Array.length sym.lw in
  let prev = if inner = 0 then 0 else Array.length sym.lw.(0) in
  let w' = Array.make_matrix rows prev 0.0 in
  let c' = Array.copy c in
  for r = 0 to rows - 1 do
    let wr = w.(r) in
    let wr' = w'.(r) in
    for j = 0 to inner - 1 do
      let coeff = wr.(j) in
      if coeff <> 0.0 then begin
        let take_lower = if lower then coeff > 0.0 else coeff < 0.0 in
        let srow = if take_lower then sym.lw.(j) else sym.uw.(j) in
        let sconst = if take_lower then sym.lconst.(j) else sym.uconst.(j) in
        c'.(r) <- c'.(r) +. (coeff *. sconst);
        Vec.axpy coeff srow wr'
      end
    done
  done;
  (w', c')

(* Evaluate an input-level expression over the box. *)
let eval ~lower box w c =
  Array.init (Array.length w) (fun r ->
      let wr = w.(r) in
      let acc = ref c.(r) in
      for j = 0 to Array.length wr - 1 do
        let coeff = wr.(j) in
        if coeff <> 0.0 then
          let take_lo = if lower then coeff >= 0.0 else coeff < 0.0 in
          acc := !acc +. (coeff *. if take_lo then Box.lo_at box j else Box.hi_at box j)
      done;
      !acc)

(* Concrete bounds of an expression over layer [upto - 1]'s posts (or
   the input if [upto = 0]), back-substituting through syms. *)
let backsub ~lower syms box ~upto w c =
  let w = ref w and c = ref c in
  for k = upto - 1 downto 0 do
    let w', c' = step ~lower syms.(k) !w !c in
    w := w';
    c := c'
  done;
  eval ~lower box !w !c

let backsub_lower syms box ~upto w c = backsub ~lower:true syms box ~upto w c

let backsub_upper syms box ~upto w c = backsub ~lower:false syms box ~upto w c

(* [s * row], the row itself when [s = 1] (the product is exact). *)
let scaled s row = if s = 1.0 then row else Array.map (fun x -> s *. x) row

(* One layer's symbolic rows and bounds given the symbolic bounds of
   every layer below it.  [donor] (an analysis with the same layers
   below) lends the rows of the neurons whose split phase it shares:
   their back-substitution and transfer would recompute the same
   floats. *)
let analyze_layer net layers syms box splits ?donor li =
  let wm, b = Network.layer_dense net li in
  let w = Mat.row_arrays wm in
  let dim = Array.length w in
  let full_pre () = (backsub_lower syms box ~upto:li w b, backsub_upper syms box ~upto:li w b) in
  match Layer.classify (Layer.activation layers.(li)) with
  | Layer.Linear_activation ->
      let pre_lo, pre_hi = full_pre () in
      ( { lw = w; lconst = b; uw = w; uconst = b },
        { Bounds.pre_lo; pre_hi; post_lo = Array.copy pre_lo; post_hi = Array.copy pre_hi } )
  | Layer.Smooth { f; df } ->
      (* Two parallel lines of slope min(f'(l), f'(u)) sandwich a
         monotone S-shaped activation on [l, u]: one row, two
         constants. *)
      let pre_lo, pre_hi = full_pre () in
      let rows = Array.make dim [||] in
      let lconst = Array.make dim 0.0 and uconst = Array.make dim 0.0 in
      let post_lo = Array.make dim 0.0 and post_hi = Array.make dim 0.0 in
      for idx = 0 to dim - 1 do
        let l = pre_lo.(idx) and u = pre_hi.(idx) in
        let lambda = Float.min (df l) (df u) in
        rows.(idx) <- scaled lambda w.(idx);
        lconst.(idx) <- (lambda *. b.(idx)) +. (f l -. (lambda *. l));
        uconst.(idx) <- (lambda *. b.(idx)) +. (f u -. (lambda *. u));
        post_lo.(idx) <- f l;
        post_hi.(idx) <- f u
      done;
      ({ lw = rows; lconst; uw = rows; uconst }, { Bounds.pre_lo; pre_hi; post_lo; post_hi })
  | Layer.Piecewise slope ->
      (* Per-neuron activation relaxation slopes; the symbolic bound
         of the post in terms of the PREVIOUS layer composes the
         relaxation with the affine row.  [slope] is the
         activation's negative-side slope (0 for ReLU). *)
      let phase idx = Splits.find (Relu_id.make ~layer:li ~index:idx) splits in
      let lent =
        match donor with
        | None -> Array.make dim false
        | Some d ->
            Array.init dim (fun idx -> Splits.find (Relu_id.make ~layer:li ~index:idx) d.splits = phase idx)
      in
      (* Concrete pre-activation bounds by back-substitution, of the
         rows not lent by the donor.  Rows are independent, so a subset
         yields the same floats as the full matrix. *)
      let pre_lo, pre_hi =
        if not (Array.mem true lent) then full_pre ()
        else begin
          let todo = List.filter (fun idx -> not lent.(idx)) (List.init dim Fun.id) |> Array.of_list in
          let tw = Array.map (fun idx -> w.(idx)) todo and tb = Array.map (fun idx -> b.(idx)) todo in
          let lo = backsub_lower syms box ~upto:li tw tb and hi = backsub_upper syms box ~upto:li tw tb in
          let pre_lo = Array.make dim 0.0 and pre_hi = Array.make dim 0.0 in
          Array.iteri
            (fun k idx ->
              pre_lo.(idx) <- lo.(k);
              pre_hi.(idx) <- hi.(k))
            todo;
          (pre_lo, pre_hi)
        end
      in
      let lw = Array.make dim [||] and uw = Array.make dim [||] in
      let lconst = Array.make dim 0.0 and uconst = Array.make dim 0.0 in
      let post_lo = Array.make dim 0.0 and post_hi = Array.make dim 0.0 in
      let act v = if v >= 0.0 then v else slope *. v in
      for idx = 0 to dim - 1 do
        let lb = pre_lo.(idx) and ub = pre_hi.(idx) in
        let wrow = w.(idx) in
        (* Both bounds are the exact line y = s*x. *)
        let linear s =
          let row = scaled s wrow in
          lw.(idx) <- row;
          uw.(idx) <- row;
          lconst.(idx) <- (s *. b.(idx)) +. 0.0;
          uconst.(idx) <- lconst.(idx)
        in
        match (donor, phase idx) with
        | Some d, _ when lent.(idx) ->
            let dsym = d.syms.(li) and dl = d.bounds.Bounds.layers.(li) in
            lw.(idx) <- dsym.lw.(idx);
            uw.(idx) <- dsym.uw.(idx);
            lconst.(idx) <- dsym.lconst.(idx);
            uconst.(idx) <- dsym.uconst.(idx);
            pre_lo.(idx) <- dl.Bounds.pre_lo.(idx);
            pre_hi.(idx) <- dl.Bounds.pre_hi.(idx);
            post_lo.(idx) <- dl.Bounds.post_lo.(idx);
            post_hi.(idx) <- dl.Bounds.post_hi.(idx)
        | _, Some Splits.Pos ->
            if ub < 0.0 then raise Empty_region;
            pre_lo.(idx) <- Float.max 0.0 lb;
            linear 1.0;
            post_lo.(idx) <- pre_lo.(idx);
            post_hi.(idx) <- ub
        | _, Some Splits.Neg ->
            if lb > 0.0 then raise Empty_region;
            pre_hi.(idx) <- Float.min 0.0 ub;
            linear slope;
            post_lo.(idx) <- slope *. lb;
            post_hi.(idx) <- slope *. pre_hi.(idx)
        | _, None ->
            if lb >= 0.0 then begin
              linear 1.0;
              post_lo.(idx) <- lb;
              post_hi.(idx) <- ub
            end
            else if ub <= 0.0 then begin
              linear slope;
              post_lo.(idx) <- slope *. lb;
              post_hi.(idx) <- slope *. ub
            end
            else begin
              (* Ambiguous: upper chord through the endpoints, lower
                 slope by min-area between the two exact pieces. *)
              let lambda_u = (ub -. (slope *. lb)) /. (ub -. lb) in
              let mu_u = lb *. (slope -. lambda_u) in
              uw.(idx) <- scaled lambda_u wrow;
              uconst.(idx) <- (lambda_u *. b.(idx)) +. mu_u;
              let lambda_l = if ub >= -.lb then 1.0 else slope in
              lw.(idx) <- scaled lambda_l wrow;
              lconst.(idx) <- (lambda_l *. b.(idx)) +. 0.0;
              post_lo.(idx) <- act lb;
              post_hi.(idx) <- ub
            end
      done;
      ({ lw; lconst; uw; uconst }, { Bounds.pre_lo; pre_hi; post_lo; post_hi })

(* Where a run over [splits] can resume from [reuse]: the first layer
   to recompute, at the latest the first layer the donor lacks.  Below
   that layer the donor's split assignment is the node's, so its
   symbolic rows and bounds are the ones this run would compute.  A
   donor of another network or box resumes nothing. *)
let resume_point ?reuse net ~box ~splits =
  match reuse with
  | Some d when d.net == net && d.box == box ->
      let kept = Array.length d.syms in
      let k = match Splits.first_difference d.splits splits with None -> kept | Some k -> min k kept in
      Some (d, k)
  | _ -> None

let no_sym = { lw = [||]; lconst = [||]; uw = [||]; uconst = [||] }

let no_bounds = { Bounds.pre_lo = [||]; pre_hi = [||]; post_lo = [||]; post_hi = [||] }

let analyze ?reuse net ~box ~splits =
  if Box.dim box <> Network.input_dim net then
    invalid_arg "Deeppoly.analyze: box dimension mismatch";
  let layers = Network.layers net in
  let count = Array.length layers in
  match resume_point ?reuse net ~box ~splits with
  | Some (d, start) when start = count -> Feasible { d with splits }
  | resume -> (
      let syms = Array.make count no_sym in
      let bounds_layers = Array.make count no_bounds in
      let start, donor =
        match resume with
        | None -> (0, None)
        | Some (d, start) ->
            Array.blit d.syms 0 syms 0 start;
            Array.blit d.bounds.Bounds.layers 0 bounds_layers 0 start;
            (start, if start < Array.length d.syms then Some d else None)
      in
      try
        for li = start to count - 1 do
          let donor = if li = start then donor else None in
          let sym, layer_bounds = analyze_layer net layers syms box splits ?donor li in
          syms.(li) <- sym;
          bounds_layers.(li) <- layer_bounds
        done;
        Feasible { net; box; splits; syms; bounds = { Bounds.layers = bounds_layers } }
      with Empty_region -> Infeasible)

let bounds a = a.bounds

let prefix a = a

let truncate ~layers p =
  if layers >= Array.length p.syms then p
  else
    let layers_bounds = Array.sub p.bounds.Bounds.layers 0 layers in
    { p with syms = Array.sub p.syms 0 layers; bounds = { Bounds.layers = layers_bounds } }

let objective_lo a ~c ~offset =
  (backsub_lower a.syms a.box ~upto:(Array.length a.syms) [| c |] [| offset |]).(0)

let objective_itv a ~c ~offset =
  let hi = (backsub_upper a.syms a.box ~upto:(Array.length a.syms) [| c |] [| offset |]).(0) in
  Itv.make (objective_lo a ~c ~offset) hi
