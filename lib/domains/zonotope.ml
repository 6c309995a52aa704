module Vec = Ivan_tensor.Vec
module Mat = Ivan_tensor.Mat
module Network = Ivan_nn.Network
module Layer = Ivan_nn.Layer
module Relu_id = Ivan_nn.Relu_id
module Box = Ivan_spec.Box

(* The pre-activation affine forms of one layer — the affine image of
   the previous layer's post-activation forms — over its first [terms]
   noise symbols.  Read-only once built, so shared freely. *)
type form = { centers : Vec.t; gens : float array array; terms : int }

type prefix = {
  net : Network.t;
  box : Box.t;
  splits : Splits.t;
  forms : form array;  (* every layer but the output layer; none if not resumable *)
  layers : Bounds.layer array;
  terms_of : int Relu_id.Map.t;
}

type analysis = {
  bounds : Bounds.t;
  output_center : Vec.t;
  output_gen : float array array;
  relu_terms : int Relu_id.Map.t;
  nterms : int;
  input_box : Box.t;
  prefix : prefix;
}

type result = Feasible of analysis | Infeasible

exception Empty_region

(* Interval concretization of an affine form. *)
let form_radius gen = Array.fold_left (fun acc g -> acc +. Float.abs g) 0.0 gen

let form_itv center gen =
  let r = form_radius gen in
  (center -. r, center +. r)

(* Affine image: given per-neuron (center, gen) of the previous layer,
   compute the same for W x + b.  Hot path: the weight matrix's own rows,
   structural zeros skipped. *)
let affine_image w b centers gens nterms =
  let rows = Array.length w in
  let out_centers = Array.make rows 0.0 in
  let out_gens = Array.init rows (fun _ -> Array.make nterms 0.0) in
  for i = 0 to rows - 1 do
    let wrow = w.(i) in
    let acc = ref b.(i) in
    let row_gen = out_gens.(i) in
    for j = 0 to Array.length wrow - 1 do
      let wij = wrow.(j) in
      if wij <> 0.0 then begin
        acc := !acc +. (wij *. centers.(j));
        let g = gens.(j) in
        for t = 0 to nterms - 1 do
          let gt = g.(t) in
          if gt <> 0.0 then row_gen.(t) <- row_gen.(t) +. (wij *. gt)
        done
      end
    done;
    out_centers.(i) <- !acc
  done;
  { centers = out_centers; gens = out_gens; terms = nterms }

let pre_form net li centers gens nterms =
  let w, b = Network.layer_dense net li in
  affine_image (Mat.row_arrays w) b centers gens nterms

(* Input forms: x_j = mid_j + rad_j * eps_j, and their image under the
   first layer. *)
let first_form net box =
  let d = Box.dim box in
  let centers = Array.init d (fun j -> 0.5 *. (Box.lo_at box j +. Box.hi_at box j)) in
  let gens =
    Array.init d (fun j ->
        let g = Array.make d 0.0 in
        g.(j) <- 0.5 *. Box.width box j;
        g)
  in
  pre_form net 0 centers gens d

(* One layer's activation on its pre-activation forms: the layer's
   bounds, its post-activation forms and their term count.  Ambiguous
   ReLUs are recorded into [relu_terms]. *)
let activate layer li splits relu_terms { centers = pre_centers; gens = pre_gens; terms = nterms } =
  let dim = Array.length pre_centers in
  let pre_lo = Array.make dim 0.0 and pre_hi = Array.make dim 0.0 in
  for idx = 0 to dim - 1 do
    let lo, hi = form_itv pre_centers.(idx) pre_gens.(idx) in
    pre_lo.(idx) <- lo;
    pre_hi.(idx) <- hi
  done;
  match Layer.classify (Layer.activation layer) with
  | Layer.Linear_activation ->
      ( { Bounds.pre_lo; pre_hi; post_lo = Array.copy pre_lo; post_hi = Array.copy pre_hi },
        pre_centers,
        pre_gens,
        nterms )
  | Layer.Smooth { f; df } ->
      (* Minimal parallelogram for a monotone S-shaped function:
         slope min(f'(l), f'(u)) keeps f(x) - lambda*x nondecreasing,
         so its range is the endpoint image.  One fresh symbol per
         neuron. *)
      let nterms' = nterms + dim in
      let post_centers = Array.make dim 0.0 in
      let post_gens = Array.init dim (fun _ -> Array.make nterms' 0.0) in
      let post_lo = Array.make dim 0.0 and post_hi = Array.make dim 0.0 in
      for idx = 0 to dim - 1 do
        let l = pre_lo.(idx) and u = pre_hi.(idx) in
        let lambda = Float.min (df l) (df u) in
        let g_lo = f l -. (lambda *. l) and g_hi = f u -. (lambda *. u) in
        let mid = 0.5 *. (g_lo +. g_hi) and rad = 0.5 *. (g_hi -. g_lo) in
        post_centers.(idx) <- (lambda *. pre_centers.(idx)) +. mid;
        let g = post_gens.(idx) and pg = pre_gens.(idx) in
        for t = 0 to nterms - 1 do
          g.(t) <- lambda *. pg.(t)
        done;
        g.(nterms + idx) <- rad;
        let lo, hi = form_itv post_centers.(idx) post_gens.(idx) in
        post_lo.(idx) <- Float.max lo (f l);
        post_hi.(idx) <- Float.min hi (f u)
      done;
      ({ Bounds.pre_lo; pre_hi; post_lo; post_hi }, post_centers, post_gens, nterms')
  | Layer.Piecewise slope ->
      (* Classify neurons, checking split phases and counting the fresh
         noise symbols needed.  [`Linear s]: the activation acts as
         y = s*x on the neuron's (possibly phase-refined) range. *)
      let kind = Array.make dim (`Linear 1.0) in
      let fresh = ref 0 in
      for idx = 0 to dim - 1 do
        let phase = Splits.find (Relu_id.make ~layer:li ~index:idx) splits in
        match phase with
        | Some Splits.Pos ->
            if pre_hi.(idx) < 0.0 then raise Empty_region;
            pre_lo.(idx) <- Float.max 0.0 pre_lo.(idx);
            kind.(idx) <- `Linear 1.0
        | Some Splits.Neg ->
            if pre_lo.(idx) > 0.0 then raise Empty_region;
            pre_hi.(idx) <- Float.min 0.0 pre_hi.(idx);
            kind.(idx) <- `Linear slope
        | None ->
            if pre_lo.(idx) >= 0.0 then kind.(idx) <- `Linear 1.0
            else if pre_hi.(idx) <= 0.0 then kind.(idx) <- `Linear slope
            else begin
              kind.(idx) <- `Ambiguous !fresh;
              incr fresh
            end
      done;
      let nterms' = nterms + !fresh in
      let post_centers = Array.make dim 0.0 in
      let post_gens = Array.init dim (fun _ -> Array.make nterms' 0.0) in
      let post_lo = Array.make dim 0.0 and post_hi = Array.make dim 0.0 in
      let act v = if v >= 0.0 then v else slope *. v in
      for idx = 0 to dim - 1 do
        (match kind.(idx) with
        | `Linear s ->
            post_centers.(idx) <- s *. pre_centers.(idx);
            let g = post_gens.(idx) and pg = pre_gens.(idx) in
            for t = 0 to nterms - 1 do
              g.(t) <- s *. pg.(t)
            done
        | `Ambiguous k ->
            (* Minimal-area parallelogram for the two-piece activation:
               chord slope lambda through the endpoints, vertical
               half-width mu. *)
            let lb = pre_lo.(idx) and ub = pre_hi.(idx) in
            let lambda = (ub -. (slope *. lb)) /. (ub -. lb) in
            let mu = (1.0 -. slope) *. ub *. -.lb /. (ub -. lb) /. 2.0 in
            post_centers.(idx) <- (lambda *. pre_centers.(idx)) +. mu;
            let g = post_gens.(idx) in
            let pg = pre_gens.(idx) in
            for t = 0 to nterms - 1 do
              g.(t) <- lambda *. pg.(t)
            done;
            g.(nterms + k) <- mu;
            relu_terms := Relu_id.Map.add (Relu_id.make ~layer:li ~index:idx) (nterms + k) !relu_terms);
        let lo, hi = form_itv post_centers.(idx) post_gens.(idx) in
        (* The exact post-activation range is also within the
           activation image of the pre bounds; meet the two. *)
        post_lo.(idx) <- Float.max lo (act pre_lo.(idx));
        post_hi.(idx) <- Float.min hi (act pre_hi.(idx))
      done;
      ({ Bounds.pre_lo; pre_hi; post_lo; post_hi }, post_centers, post_gens, nterms')

(* Where a run over [splits] can resume from [reuse]: the first layer
   whose split assignment differs from the donor's, capped at the
   deepest layer whose forms the donor keeps.  That layer's
   pre-activation forms depend only on the layers below it, so they
   are the donor's.  A donor of another network or box resumes
   nothing. *)
let resume_point ?reuse net ~box ~splits =
  match reuse with
  | Some p when p.net == net && p.box == box && Array.length p.forms > 0 ->
      let last = Array.length p.forms - 1 in
      let k = match Splits.first_difference p.splits splits with None -> last | Some k -> min k last in
      Some (p, k)
  | _ -> None

let no_form = { centers = [||]; gens = [||]; terms = 0 }

let no_bounds = { Bounds.pre_lo = [||]; pre_hi = [||]; post_lo = [||]; post_hi = [||] }

let analyze ?reuse ?(resumable = false) net ~box ~splits =
  if Box.dim box <> Network.input_dim net then invalid_arg "Zonotope.analyze: box dimension mismatch";
  let layers = Network.layers net in
  let count = Array.length layers in
  let bounds_layers = Array.make count no_bounds in
  let forms = Array.make (if resumable then count - 1 else 0) no_form in
  let start, relu_terms, first =
    match resume_point ?reuse net ~box ~splits with
    | Some (p, k) ->
        Array.blit p.layers 0 bounds_layers 0 k;
        if resumable then Array.blit p.forms 0 forms 0 k;
        let below, _, _ = Relu_id.Map.split (Relu_id.make ~layer:k ~index:0) p.terms_of in
        (k, ref below, p.forms.(k))
    | None -> (0, ref Relu_id.Map.empty, first_form net box)
  in
  try
    let rec go li pre =
      if li < Array.length forms then forms.(li) <- pre;
      let layer_bounds, centers, gens, nterms = activate layers.(li) li splits relu_terms pre in
      bounds_layers.(li) <- layer_bounds;
      if li = count - 1 then (centers, gens, nterms) else go (li + 1) (pre_form net (li + 1) centers gens nterms)
    in
    let output_center, output_gen, nterms = go start first in
    let bounds = { Bounds.layers = bounds_layers } in
    Feasible
      {
        bounds;
        output_center;
        output_gen;
        relu_terms = !relu_terms;
        nterms;
        input_box = box;
        prefix = { net; box; splits; forms; layers = bounds_layers; terms_of = !relu_terms };
      }
  with Empty_region -> Infeasible

let truncate ~layers p =
  if layers >= Array.length p.forms then p
  else { p with forms = Array.sub p.forms 0 layers; layers = Array.sub p.layers 0 layers }

let objective_coeffs a ~c =
  let obj = Array.make a.nterms 0.0 in
  Array.iteri
    (fun i ci ->
      if ci <> 0.0 then
        let g = a.output_gen.(i) in
        for t = 0 to a.nterms - 1 do
          obj.(t) <- obj.(t) +. (ci *. g.(t))
        done)
    c;
  obj

let objective_itv a ~c ~offset =
  let center = Vec.dot c a.output_center +. offset in
  let radius = form_radius (objective_coeffs a ~c) in
  Itv.make (center -. radius) (center +. radius)

let relu_score_from_coeffs a obj r =
  match Relu_id.Map.find_opt r a.relu_terms with None -> 0.0 | Some t -> Float.abs obj.(t)

let relu_score a ~c r = relu_score_from_coeffs a (objective_coeffs a ~c) r

let minimizing_input a ~c =
  let obj = objective_coeffs a ~c in
  let d = Box.dim a.input_box in
  Array.init d (fun j ->
      let mid = 0.5 *. (Box.lo_at a.input_box j +. Box.hi_at a.input_box j) in
      let rad = 0.5 *. Box.width a.input_box j in
      if obj.(j) > 0.0 then mid -. rad else if obj.(j) < 0.0 then mid +. rad else mid)
