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

(* The post-activation forms of one layer, stored at the width of its
   pre-activation forms: row [j] is [gens.(j)] (zeros past its end) plus
   [mu.(j)] on term [fresh.(j)] when that is non-negative.  A fresh
   symbol belongs to one neuron and is zero in every other row, so it
   costs one entry, not a column.  Rows may be shared with the pre
   forms. *)
type post = { p_centers : Vec.t; p_gens : float array array; fresh : int array; mu : float array; p_terms : int }

let no_fresh = -1

(* Affine image: given the previous layer's post-activation forms,
   compute the pre-activation forms of W x + b, densely over all
   [p_terms] terms.  Hot path: structural zeros of the weight matrix's
   own rows are skipped, the inherited prefix is one {!Vec.axpy} per
   weight, and a fresh term gets the one product the dense loop would
   add to its [+0.] accumulator. *)
let affine_image w b { p_centers = centers; p_gens = gens; fresh; mu; p_terms = nterms } =
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
        Vec.axpy wij gens.(j) row_gen;
        let t = fresh.(j) in
        if t <> no_fresh && mu.(j) <> 0.0 then row_gen.(t) <- 0.0 +. (wij *. mu.(j))
      end
    done;
    out_centers.(i) <- !acc
  done;
  { centers = out_centers; gens = out_gens; terms = nterms }

let pre_form net li post =
  let w, b = Network.layer_dense net li in
  affine_image (Mat.row_arrays w) b post

(* Post forms without fresh symbols. *)
let plain centers gens nterms =
  let dim = Array.length centers in
  { p_centers = centers; p_gens = gens; fresh = Array.make dim no_fresh; mu = Array.make dim 0.0; p_terms = nterms }

(* The post forms as dense rows over all their terms: the output
   layer's generators. *)
let dense post =
  Array.mapi
    (fun j g ->
      if Array.length g = post.p_terms then g
      else begin
        let row = Array.make post.p_terms 0.0 in
        Array.blit g 0 row 0 (Array.length g);
        if post.fresh.(j) <> no_fresh then row.(post.fresh.(j)) <- post.mu.(j);
        row
      end)
    post.p_gens

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
  pre_form net 0 (plain centers gens d)

(* [s * row], the row itself when [s = 1] (the product is exact). *)
let scaled s row = if s = 1.0 then row else Array.map (fun x -> s *. x) row

(* Interval concretization of a post row with fresh coefficient [mu]:
   the dense row's radius, whose other fresh entries add [+0.]. *)
let post_itv center gen mu =
  let r = form_radius gen +. Float.abs mu in
  (center -. r, center +. r)

(* One layer's activation on its pre-activation forms: the layer's
   bounds and its post-activation forms.  Ambiguous ReLUs are recorded
   into [relu_terms]. *)
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
        plain pre_centers pre_gens nterms )
  | Layer.Smooth { f; df } ->
      (* Minimal parallelogram for a monotone S-shaped function:
         slope min(f'(l), f'(u)) keeps f(x) - lambda*x nondecreasing,
         so its range is the endpoint image.  One fresh symbol per
         neuron. *)
      let post_centers = Array.make dim 0.0 in
      let post_gens = Array.make dim [||] in
      let fresh = Array.init dim (fun idx -> nterms + idx) and mu = Array.make dim 0.0 in
      let post_lo = Array.make dim 0.0 and post_hi = Array.make dim 0.0 in
      for idx = 0 to dim - 1 do
        let l = pre_lo.(idx) and u = pre_hi.(idx) in
        let lambda = Float.min (df l) (df u) in
        let g_lo = f l -. (lambda *. l) and g_hi = f u -. (lambda *. u) in
        let mid = 0.5 *. (g_lo +. g_hi) and rad = 0.5 *. (g_hi -. g_lo) in
        post_centers.(idx) <- (lambda *. pre_centers.(idx)) +. mid;
        post_gens.(idx) <- scaled lambda pre_gens.(idx);
        mu.(idx) <- rad;
        let lo, hi = post_itv post_centers.(idx) post_gens.(idx) rad in
        post_lo.(idx) <- Float.max lo (f l);
        post_hi.(idx) <- Float.min hi (f u)
      done;
      ( { Bounds.pre_lo; pre_hi; post_lo; post_hi },
        { p_centers = post_centers; p_gens = post_gens; fresh; mu; p_terms = nterms + dim } )
  | Layer.Piecewise slope ->
      (* Per neuron, check split phases and pick the transformer.  On a
         neuron's (possibly phase-refined) range the activation either
         acts as the line y = s*x, or it is ambiguous and gets the
         minimal-area parallelogram of the two-piece activation: chord
         slope lambda through the endpoints, vertical half-width mu, and
         the next fresh noise symbol. *)
      let post_centers = Array.make dim 0.0 in
      let post_gens = Array.make dim [||] in
      let fresh = Array.make dim no_fresh and mu = Array.make dim 0.0 in
      let post_lo = Array.make dim 0.0 and post_hi = Array.make dim 0.0 in
      let act v = if v >= 0.0 then v else slope *. v in
      let nterms' = ref nterms in
      for idx = 0 to dim - 1 do
        let linear s =
          post_centers.(idx) <- s *. pre_centers.(idx);
          post_gens.(idx) <- scaled s pre_gens.(idx)
        in
        (match Splits.find (Relu_id.make ~layer:li ~index:idx) splits with
        | Some Splits.Pos ->
            if pre_hi.(idx) < 0.0 then raise Empty_region;
            pre_lo.(idx) <- Float.max 0.0 pre_lo.(idx);
            linear 1.0
        | Some Splits.Neg ->
            if pre_lo.(idx) > 0.0 then raise Empty_region;
            pre_hi.(idx) <- Float.min 0.0 pre_hi.(idx);
            linear slope
        | None ->
            let lb = pre_lo.(idx) and ub = pre_hi.(idx) in
            if lb >= 0.0 then linear 1.0
            else if ub <= 0.0 then linear slope
            else begin
              let lambda = (ub -. (slope *. lb)) /. (ub -. lb) in
              let m = (1.0 -. slope) *. ub *. -.lb /. (ub -. lb) /. 2.0 in
              post_centers.(idx) <- (lambda *. pre_centers.(idx)) +. m;
              post_gens.(idx) <- scaled lambda pre_gens.(idx);
              fresh.(idx) <- !nterms';
              mu.(idx) <- m;
              relu_terms := Relu_id.Map.add (Relu_id.make ~layer:li ~index:idx) !nterms' !relu_terms;
              incr nterms'
            end);
        let lo, hi = post_itv post_centers.(idx) post_gens.(idx) mu.(idx) in
        (* The exact post-activation range is also within the
           activation image of the pre bounds; meet the two. *)
        post_lo.(idx) <- Float.max lo (act pre_lo.(idx));
        post_hi.(idx) <- Float.min hi (act pre_hi.(idx))
      done;
      ( { Bounds.pre_lo; pre_hi; post_lo; post_hi },
        { p_centers = post_centers; p_gens = post_gens; fresh; mu; p_terms = !nterms' } )

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
      let layer_bounds, post = activate layers.(li) li splits relu_terms pre in
      bounds_layers.(li) <- layer_bounds;
      if li = count - 1 then (post.p_centers, dense post, post.p_terms) else go (li + 1) (pre_form net (li + 1) post)
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

let objective_itv_from_coeffs a obj ~c ~offset =
  let center = Vec.dot c a.output_center +. offset in
  let radius = form_radius obj in
  Itv.make (center -. radius) (center +. radius)

let objective_itv a ~c ~offset = objective_itv_from_coeffs a (objective_coeffs a ~c) ~c ~offset

let relu_score_from_coeffs a obj r =
  match Relu_id.Map.find_opt r a.relu_terms with None -> 0.0 | Some t -> Float.abs obj.(t)

let relu_score a ~c r = relu_score_from_coeffs a (objective_coeffs a ~c) r

let minimizing_input_from_coeffs a obj =
  let d = Box.dim a.input_box in
  Array.init d (fun j ->
      let mid = 0.5 *. (Box.lo_at a.input_box j +. Box.hi_at a.input_box j) in
      let rad = 0.5 *. Box.width a.input_box j in
      if obj.(j) > 0.0 then mid -. rad else if obj.(j) < 0.0 then mid +. rad else mid)

let minimizing_input a ~c = minimizing_input_from_coeffs a (objective_coeffs a ~c)
