(* Tests for the abstract domains: interval, zonotope, DeepPoly —
   soundness against sampled executions, precision ordering, split
   handling, infeasibility detection. *)

module Vec = Ivan_tensor.Vec
module Mat = Ivan_tensor.Mat
module Rng = Ivan_tensor.Rng
module Network = Ivan_nn.Network
module Layer = Ivan_nn.Layer
module Relu_id = Ivan_nn.Relu_id
module Box = Ivan_spec.Box
module Itv = Ivan_domains.Itv
module Splits = Ivan_domains.Splits
module Bounds = Ivan_domains.Bounds
module Interval_dom = Ivan_domains.Interval_dom
module Zonotope = Ivan_domains.Zonotope
module Deeppoly = Ivan_domains.Deeppoly

let unit_box d = Box.make ~lo:(Vec.zeros d) ~hi:(Vec.create d 1.0)

(* ---------------- Itv ---------------- *)

let test_itv_ops () =
  let a = Itv.make (-1.0) 2.0 in
  let b = Itv.make 0.5 1.0 in
  Alcotest.(check (float 1e-12)) "add lo" (-0.5) (Itv.add a b).Itv.lo;
  Alcotest.(check (float 1e-12)) "scale neg hi" 2.0 (Itv.scale (-2.0) a).Itv.hi;
  Alcotest.(check (float 1e-12)) "relu lo" 0.0 (Itv.relu a).Itv.lo;
  Alcotest.(check bool) "meet" true (Itv.meet a b = Some b);
  Alcotest.(check bool) "empty meet" true (Itv.meet (Itv.make 0.0 1.0) (Itv.make 2.0 3.0) = None)

let test_itv_invalid () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Itv.make: lo > hi") (fun () ->
      ignore (Itv.make 1.0 0.0))

(* ---------------- Splits ---------------- *)

let test_splits_basic () =
  let r0 = Relu_id.make ~layer:0 ~index:0 in
  let s = Splits.add r0 Splits.Pos Splits.empty in
  Alcotest.(check bool) "mem" true (Splits.mem r0 s);
  Alcotest.(check bool) "find" true (Splits.find r0 s = Some Splits.Pos);
  Alcotest.(check int) "cardinal" 1 (Splits.cardinal s);
  Alcotest.check_raises "double split" (Invalid_argument "Splits.add: r[0,0] already split")
    (fun () -> ignore (Splits.add r0 Splits.Neg s))

(* ---------------- soundness harness ---------------- *)

(* For each sampled input consistent with the splits, the trace's pre
   and post activations must lie within the claimed bounds. *)
let check_bounds_sound ~seed net box splits (bounds : Bounds.t) =
  let rng = Rng.create seed in
  let violations = ref 0 in
  let checked = ref 0 in
  for _ = 1 to 500 do
    let x = Box.sample ~rng box in
    let tr = Network.forward_trace net x in
    (* Respect the split assumptions: skip samples that violate them. *)
    let consistent =
      List.for_all
        (fun ((r : Relu_id.t), phase) ->
          let v = tr.Network.pre.(r.Relu_id.layer).(r.Relu_id.index) in
          match phase with Splits.Pos -> v >= 0.0 | Splits.Neg -> v < 0.0)
        (Splits.bindings splits)
    in
    if consistent then begin
      incr checked;
      Array.iteri
        (fun li layer ->
          Array.iteri
            (fun idx v ->
              if
                v < layer.Bounds.pre_lo.(idx) -. 1e-6 || v > layer.Bounds.pre_hi.(idx) +. 1e-6
              then incr violations)
            tr.Network.pre.(li);
          Array.iteri
            (fun idx v ->
              if
                v < layer.Bounds.post_lo.(idx) -. 1e-6 || v > layer.Bounds.post_hi.(idx) +. 1e-6
              then incr violations)
            tr.Network.post.(li))
        bounds.Bounds.layers
    end
  done;
  (!violations, !checked)

let random_case seed =
  let net = Fixtures.random_net ~seed ~dims:[ 3; 6; 5; 2 ] in
  let box = unit_box 3 in
  (net, box)

let test_interval_sound () =
  for seed = 1 to 5 do
    let net, box = random_case seed in
    match Interval_dom.analyze net ~box ~splits:Splits.empty with
    | Interval_dom.Infeasible -> Alcotest.fail "unexpected infeasible"
    | Interval_dom.Feasible bounds ->
        let violations, checked = check_bounds_sound ~seed net box Splits.empty bounds in
        Alcotest.(check int) "no violations" 0 violations;
        Alcotest.(check bool) "checked some points" true (checked > 0)
  done

let test_zonotope_sound () =
  for seed = 1 to 5 do
    let net, box = random_case seed in
    match Zonotope.analyze net ~box ~splits:Splits.empty with
    | Zonotope.Infeasible -> Alcotest.fail "unexpected infeasible"
    | Zonotope.Feasible a ->
        let violations, _ = check_bounds_sound ~seed net box Splits.empty a.Zonotope.bounds in
        Alcotest.(check int) "no violations" 0 violations
  done

let test_deeppoly_sound () =
  for seed = 1 to 5 do
    let net, box = random_case seed in
    match Deeppoly.analyze net ~box ~splits:Splits.empty with
    | Deeppoly.Infeasible -> Alcotest.fail "unexpected infeasible"
    | Deeppoly.Feasible a ->
        let violations, _ = check_bounds_sound ~seed net box Splits.empty (Deeppoly.bounds a) in
        Alcotest.(check int) "no violations" 0 violations
  done

(* On the first layer (a pure affine image of the box) the zonotope is
   exact, hence equal to the interval bounds, and on deeper layers the
   zonotope's *second* affine image retains input correlations that
   intervals lose: verify on a network where the correlation matters
   (y = x - x is exactly 0 for zonotopes, [-1, 1] for intervals). *)
let test_zonotope_exactness_vs_interval () =
  let net, box = random_case 11 in
  (match
     ( Interval_dom.analyze net ~box ~splits:Splits.empty,
       Zonotope.analyze net ~box ~splits:Splits.empty )
   with
  | Interval_dom.Feasible ib, Zonotope.Feasible za ->
      let il = ib.Bounds.layers.(0) and zl = za.Zonotope.bounds.Bounds.layers.(0) in
      for j = 0 to Vec.dim il.Bounds.pre_lo - 1 do
        Alcotest.(check (float 1e-9)) "first layer pre lo equal" il.Bounds.pre_lo.(j)
          zl.Bounds.pre_lo.(j);
        Alcotest.(check (float 1e-9)) "first layer pre hi equal" il.Bounds.pre_hi.(j)
          zl.Bounds.pre_hi.(j)
      done
  | _, _ -> Alcotest.fail "unexpected infeasible");
  (* Cancellation network: two identity-activation layers computing
     y = (x) then (x - x). *)
  let open Ivan_nn in
  let l1 =
    Layer.make
      (Layer.Dense { weights = Ivan_tensor.Mat.of_arrays [| [| 1.0 |]; [| 1.0 |] |]; bias = [| 0.0; 0.0 |] })
      Layer.Identity
  in
  let l2 =
    Layer.make
      (Layer.Dense { weights = Ivan_tensor.Mat.of_arrays [| [| 1.0; -1.0 |] |]; bias = [| 0.0 |] })
      Layer.Identity
  in
  let cancel = Network.make [ l1; l2 ] in
  let b = Box.make ~lo:(Vec.of_list [ -1.0 ]) ~hi:(Vec.of_list [ 1.0 ]) in
  match
    ( Interval_dom.analyze cancel ~box:b ~splits:Splits.empty,
      Zonotope.analyze cancel ~box:b ~splits:Splits.empty )
  with
  | Interval_dom.Feasible ib, Zonotope.Feasible za ->
      Alcotest.(check (float 1e-12)) "interval lo -2" (-2.0) (Bounds.output_lo ib).(0);
      Alcotest.(check (float 1e-12)) "zonotope lo 0" 0.0 (Bounds.output_lo za.Zonotope.bounds).(0);
      Alcotest.(check (float 1e-12)) "zonotope hi 0" 0.0 (Bounds.output_hi za.Zonotope.bounds).(0)
  | _, _ -> Alcotest.fail "unexpected infeasible"

(* DeepPoly objective backsubstitution is sound and at least as tight as
   its own output-layer interval combination. *)
let test_deeppoly_objective () =
  for seed = 21 to 25 do
    let net, box = random_case seed in
    let c = Vec.of_list [ 1.0; -1.0 ] in
    match Deeppoly.analyze net ~box ~splits:Splits.empty with
    | Deeppoly.Infeasible -> Alcotest.fail "unexpected infeasible"
    | Deeppoly.Feasible a ->
        let itv = Deeppoly.objective_itv a ~c ~offset:0.0 in
        let naive = Bounds.objective_itv (Deeppoly.bounds a) ~c ~offset:0.0 in
        Alcotest.(check bool) "tighter than naive" true
          (itv.Itv.lo >= naive.Itv.lo -. 1e-9 && itv.Itv.hi <= naive.Itv.hi +. 1e-9);
        (* soundness against samples *)
        let rng = Rng.create seed in
        for _ = 1 to 300 do
          let x = Box.sample ~rng box in
          let y = Network.forward net x in
          let v = Vec.dot c y in
          Alcotest.(check bool) "within" true (v >= itv.Itv.lo -. 1e-6 && v <= itv.Itv.hi +. 1e-6)
        done
  done

(* Splitting a ReLU must refine the bounds on the corresponding side. *)
let find_ambiguous net box =
  match Deeppoly.analyze net ~box ~splits:Splits.empty with
  | Deeppoly.Infeasible -> None
  | Deeppoly.Feasible a -> (
      match Bounds.ambiguous_relus (Deeppoly.bounds a) net ~splits:Splits.empty with
      | [] -> None
      | r :: _ -> Some r)

let test_split_refines () =
  let net, box = random_case 31 in
  match find_ambiguous net box with
  | None -> Alcotest.fail "fixture has no ambiguous relu"
  | Some r -> (
      let splits = Splits.add r Splits.Pos Splits.empty in
      match (Deeppoly.analyze net ~box ~splits:Splits.empty, Deeppoly.analyze net ~box ~splits) with
      | Deeppoly.Feasible base, Deeppoly.Feasible pos ->
          let pre_base = Bounds.pre_itv (Deeppoly.bounds base) r in
          let pre_pos = Bounds.pre_itv (Deeppoly.bounds pos) r in
          Alcotest.(check bool) "pos split clips lb to 0" true (pre_pos.Itv.lo >= 0.0);
          Alcotest.(check bool) "pos split within base" true (pre_pos.Itv.hi <= pre_base.Itv.hi +. 1e-9)
      | _, _ -> Alcotest.fail "unexpected infeasible")

let test_split_soundness_on_consistent_points () =
  let net, box = random_case 32 in
  match find_ambiguous net box with
  | None -> Alcotest.fail "fixture has no ambiguous relu"
  | Some r ->
      List.iter
        (fun phase ->
          let splits = Splits.add r phase Splits.empty in
          match Zonotope.analyze net ~box ~splits with
          | Zonotope.Infeasible -> Alcotest.fail "split side unexpectedly empty"
          | Zonotope.Feasible a ->
              let violations, checked = check_bounds_sound ~seed:32 net box splits a.Zonotope.bounds in
              Alcotest.(check int) "no violations on consistent points" 0 violations;
              Alcotest.(check bool) "some consistent points" true (checked > 0))
        [ Splits.Pos; Splits.Neg ]

(* Forcing an impossible phase must be reported as infeasible. *)
let stable_relu_with_sign net box =
  match Deeppoly.analyze net ~box ~splits:Splits.empty with
  | Deeppoly.Infeasible -> None
  | Deeppoly.Feasible a ->
      let bounds = Deeppoly.bounds a in
      let found = ref None in
      Array.iteri
        (fun li layer ->
          match Ivan_nn.Layer.negative_slope (Ivan_nn.Layer.activation (Network.layers net).(li)) with
          | None -> ()
          | Some _ ->
              Array.iteri
                (fun idx lo ->
                  if !found = None then
                    if lo > 0.01 then found := Some (Relu_id.make ~layer:li ~index:idx, Splits.Neg)
                    else if layer.Bounds.pre_hi.(idx) < -0.01 then
                      found := Some (Relu_id.make ~layer:li ~index:idx, Splits.Pos))
                layer.Bounds.pre_lo)
        bounds.Bounds.layers;
      !found

let test_infeasible_detection () =
  (* Search a few seeds for a network with a stable relu. *)
  let rec go seed =
    if seed > 60 then Alcotest.fail "no stable relu found in fixtures"
    else
      let net, box = random_case seed in
      match stable_relu_with_sign net box with
      | None -> go (seed + 1)
      | Some (r, impossible_phase) ->
          let splits = Splits.add r impossible_phase Splits.empty in
          (match Interval_dom.analyze net ~box ~splits with
          | Interval_dom.Infeasible -> ()
          | Interval_dom.Feasible _ -> Alcotest.fail "interval missed infeasibility");
          (match Zonotope.analyze net ~box ~splits with
          | Zonotope.Infeasible -> ()
          | Zonotope.Feasible _ -> Alcotest.fail "zonotope missed infeasibility");
          (match Deeppoly.analyze net ~box ~splits with
          | Deeppoly.Infeasible -> ()
          | Deeppoly.Feasible _ -> Alcotest.fail "deeppoly missed infeasibility")
  in
  go 41

let test_zonotope_relu_terms () =
  let net, box = random_case 51 in
  match Zonotope.analyze net ~box ~splits:Splits.empty with
  | Zonotope.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Zonotope.Feasible a ->
      let ambiguous =
        Bounds.ambiguous_relus a.Zonotope.bounds net ~splits:Splits.empty |> List.length
      in
      Alcotest.(check int) "one term per ambiguous relu"
        (Box.dim box + ambiguous)
        a.Zonotope.nterms;
      (* scores are non-negative and only nonzero for term-bearing relus *)
      let c = Vec.of_list [ 1.0; 0.0 ] in
      let coeffs = Zonotope.objective_coeffs a ~c in
      Ivan_nn.Relu_id.Map.iter
        (fun r _ ->
          Alcotest.(check bool) "score >= 0" true (Zonotope.relu_score_from_coeffs a coeffs r >= 0.0))
        a.Zonotope.relu_terms

let test_degenerate_box () =
  (* A zero-width box: all domains collapse to the single forward run. *)
  let net = Fixtures.paper_net () in
  let x = Vec.of_list [ 0.5; 0.5 ] in
  let box = Box.make ~lo:x ~hi:x in
  let y = Network.forward net x in
  (match Interval_dom.analyze net ~box ~splits:Splits.empty with
  | Interval_dom.Feasible b ->
      Alcotest.(check (float 1e-9)) "interval exact" y.(0) (Bounds.output_lo b).(0)
  | Interval_dom.Infeasible -> Alcotest.fail "infeasible");
  (match Deeppoly.analyze net ~box ~splits:Splits.empty with
  | Deeppoly.Feasible a ->
      Alcotest.(check (float 1e-9)) "deeppoly exact" y.(0) (Bounds.output_lo (Deeppoly.bounds a)).(0)
  | Deeppoly.Infeasible -> Alcotest.fail "infeasible")

let prop_domains_sound_random =
  QCheck.Test.make ~name:"all domains sound on random nets" ~count:20
    QCheck.(make QCheck.Gen.(int_range 100 10_000))
    (fun seed ->
      let net = Fixtures.random_net ~seed ~dims:[ 2; 4; 3; 1 ] in
      let box = unit_box 2 in
      let sound bounds =
        let v, _ = check_bounds_sound ~seed net box Splits.empty bounds in
        v = 0
      in
      let i_ok =
        match Interval_dom.analyze net ~box ~splits:Splits.empty with
        | Interval_dom.Feasible b -> sound b
        | Interval_dom.Infeasible -> false
      in
      let z_ok =
        match Zonotope.analyze net ~box ~splits:Splits.empty with
        | Zonotope.Feasible a -> sound a.Zonotope.bounds
        | Zonotope.Infeasible -> false
      in
      let d_ok =
        match Deeppoly.analyze net ~box ~splits:Splits.empty with
        | Deeppoly.Feasible a -> sound (Deeppoly.bounds a)
        | Deeppoly.Infeasible -> false
      in
      i_ok && z_ok && d_ok)



(* ---------------- Differential bounds (Diff) ---------------- *)

module Diff = Ivan_domains.Diff
module Quant = Ivan_nn.Quant
module Perturb = Ivan_nn.Perturb

let test_diff_identical_networks () =
  let net, box = random_case 71 in
  match Diff.output_difference net net ~box with
  | None -> Alcotest.fail "unexpected empty region"
  | Some { Diff.lo; hi } ->
      (* Affine parts cancel exactly; only the (duplicated) relu error
         symbols remain, so bounds are symmetric around 0. *)
      Array.iteri
        (fun i l ->
          Alcotest.(check bool) "contains 0" true (l <= 1e-9 && hi.(i) >= -1e-9);
          Alcotest.(check (float 1e-9)) "symmetric" (Float.abs l) (Float.abs hi.(i)))
        lo

let test_diff_sound () =
  let net, box = random_case 72 in
  let rng = Rng.create 72 in
  let perturbed = Perturb.random_relative ~rng ~fraction:0.05 net in
  match Diff.output_difference net perturbed ~box with
  | None -> Alcotest.fail "unexpected empty region"
  | Some { Diff.lo; hi } ->
      for _ = 1 to 400 do
        let x = Box.sample ~rng box in
        let d = Vec.sub (Network.forward net x) (Network.forward perturbed x) in
        Array.iteri
          (fun i v ->
            Alcotest.(check bool) "within diff bounds" true
              (v >= lo.(i) -. 1e-6 && v <= hi.(i) +. 1e-6))
          d
      done

let test_diff_shape_mismatch () =
  let a = Fixtures.random_net ~seed:1 ~dims:[ 2; 3; 1 ] in
  let b = Fixtures.random_net ~seed:2 ~dims:[ 3; 3; 1 ] in
  Alcotest.check_raises "shapes" (Invalid_argument "Diff.output_difference: network shapes differ")
    (fun () -> ignore (Diff.output_difference a b ~box:(unit_box 2)))

let test_diff_equivalence_identical () =
  let net, box = random_case 73 in
  match Diff.verify_equivalence net net ~box ~delta:0.5 with
  | Diff.Equivalent -> ()
  | Diff.Deviation _ -> Alcotest.fail "identical networks deviated"
  | Diff.Unknown -> Alcotest.fail "identical networks unknown"

let test_diff_equivalence_quantized () =
  (* int16 quantization perturbs outputs far less than a loose delta. *)
  let net, box = random_case 74 in
  let updated = Quant.network Quant.Int16 net in
  match Diff.verify_equivalence ~max_boxes:2000 net updated ~box ~delta:0.5 with
  | Diff.Equivalent -> ()
  | Diff.Deviation x ->
      Alcotest.failf "claimed deviation %.4f"
        (Vec.norm_inf (Vec.sub (Network.forward net x) (Network.forward updated x)))
  | Diff.Unknown -> Alcotest.fail "should converge"

let test_diff_detects_deviation () =
  let net, box = random_case 75 in
  (* A large additive perturbation must be caught with a tiny delta. *)
  let rng = Rng.create 75 in
  let changed = Perturb.random_additive ~rng ~magnitude:0.5 net in
  match Diff.verify_equivalence net changed ~box ~delta:1e-4 with
  | Diff.Deviation x ->
      Alcotest.(check bool) "deviation genuine" true
        (Vec.norm_inf (Vec.sub (Network.forward net x) (Network.forward changed x)) > 1e-4)
  | Diff.Equivalent -> Alcotest.fail "missed a large deviation"
  | Diff.Unknown -> Alcotest.fail "budget too small for an obvious deviation"

let test_diff_budget () =
  let net, box = random_case 76 in
  let rng = Rng.create 76 in
  let changed = Perturb.random_relative ~rng ~fraction:0.02 net in
  (* delta slightly below what the root bound proves, with a 1-box
     budget: must give up rather than guess. *)
  match Diff.output_difference net changed ~box with
  | None -> Alcotest.fail "empty"
  | Some { Diff.lo; hi } ->
      let worst =
        Array.fold_left Float.max 0.0
          (Array.mapi (fun i l -> Float.max (Float.abs l) (Float.abs hi.(i))) lo)
      in
      let delta = worst /. 2.0 in
      (match Diff.verify_equivalence ~max_boxes:1 net changed ~box ~delta with
      | Diff.Unknown -> ()
      | Diff.Deviation _ -> () (* centre probe may legitimately catch it *)
      | Diff.Equivalent -> Alcotest.fail "cannot be proved with one box")

(* ---------------- resumed analyses ---------------- *)

(* A random small network: an optional convolution first, then dense
   layers whose hidden activations are drawn from ReLU, leaky ReLU,
   sigmoid and tanh; identity output. *)
let random_mixed_net rng =
  let weight () = Rng.uniform rng (-1.0) 1.0 in
  let hidden () =
    match Rng.int rng 4 with
    | 0 -> Layer.Relu
    | 1 -> Layer.Leaky_relu 0.1
    | 2 -> Layer.Sigmoid
    | _ -> Layer.Tanh
  in
  let dense ~inputs ~outputs act =
    let weights = Mat.init outputs inputs (fun _ _ -> weight ()) in
    Layer.make (Layer.Dense { weights; bias = Array.init outputs (fun _ -> weight ()) }) act
  in
  let conv, width =
    if Rng.bool rng then
      let spec =
        {
          Layer.in_channels = 1;
          in_height = 4;
          in_width = 4;
          out_channels = 2;
          kernel_h = 3;
          kernel_w = 3;
          stride = 1;
          padding = 0;
        }
      in
      let layer =
        let kernel = Array.init 18 (fun _ -> weight ()) in
        Layer.make
          (Layer.Conv2d { spec; kernel; bias = Array.init 2 (fun _ -> weight ()) })
          (if Rng.bool rng then Layer.Relu else Layer.Leaky_relu 0.2)
      in
      ([ layer ], 8)
    else ([], 2 + Rng.int rng 3)
  in
  let input = match conv with [] -> width | _ -> 16 in
  let rec dense_layers inputs k =
    if k = 0 then [ dense ~inputs ~outputs:(1 + Rng.int rng 2) Layer.Identity ]
    else
      let outputs = 2 + Rng.int rng 4 in
      dense ~inputs ~outputs (hidden ()) :: dense_layers outputs (k - 1)
  in
  (Network.make (conv @ dense_layers width (1 + Rng.int rng 3)), input)

let random_box rng d =
  let lo = Array.init d (fun _ -> Rng.uniform rng (-1.0) 0.5) in
  Box.make ~lo ~hi:(Array.map (fun l -> l +. Rng.uniform rng 0.01 1.0) lo)

let random_phase rng = if Rng.bool rng then Splits.Pos else Splits.Neg

(* A ReLU of [ids] that [splits] leaves unsplit, if any. *)
let pick_free rng ids splits =
  match List.filter (fun r -> not (Splits.mem r splits)) (Array.to_list ids) with
  | [] -> None
  | free -> Some (List.nth free (Rng.int rng (List.length free)))

(* About a quarter of the ReLUs, each split in the phase it takes at one
   sampled input of [box]: a feasible split set. *)
let random_splits rng net box ids =
  let pre = (Network.forward_trace net (Box.sample ~rng box)).Network.pre in
  Array.fold_left
    (fun s (r : Relu_id.t) ->
      if Rng.int rng 4 <> 0 then s
      else Splits.add r (if pre.(r.Relu_id.layer).(r.Relu_id.index) >= 0.0 then Splits.Pos else Splits.Neg) s)
    Splits.empty ids

(* A donor split set and a node split set related as parent/child,
   siblings, unrelated, or node-infeasible (a ReLU forced into the phase
   its root bounds exclude). *)
let split_pair rng net box ids =
  let base = random_splits rng net box ids in
  let with_child s = match pick_free rng ids s with None -> s | Some r -> Splits.add r (random_phase rng) s in
  match Rng.int rng 4 with
  | 0 -> (base, with_child base)
  | 1 -> (
      match pick_free rng ids base with
      | None -> (base, base)
      | Some r -> (Splits.add r Splits.Pos base, Splits.add r Splits.Neg base))
  | 2 -> (base, random_splits rng net box ids)
  | _ -> (
      let stable =
        match Deeppoly.analyze net ~box ~splits:Splits.empty with
        | Deeppoly.Infeasible -> []
        | Deeppoly.Feasible a ->
            List.filter_map
              (fun (r : Relu_id.t) ->
                let l = (Deeppoly.bounds a).Bounds.layers.(r.Relu_id.layer) in
                if l.Bounds.pre_hi.(r.Relu_id.index) < 0.0 then Some (r, Splits.Pos)
                else if l.Bounds.pre_lo.(r.Relu_id.index) > 0.0 then Some (r, Splits.Neg)
                else None)
              (Array.to_list ids)
      in
      match stable with
      | [] -> (base, with_child base)
      | _ ->
          let r, phase = List.nth stable (Rng.int rng (List.length stable)) in
          let keep = Splits.bindings base |> List.filter (fun (r', _) -> not (Relu_id.equal r r')) in
          let without = List.fold_left (fun s (r', p) -> Splits.add r' p s) Splits.empty keep in
          (without, Splits.add r phase without))

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_vec a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

let same_bounds (a : Bounds.t) (b : Bounds.t) =
  Array.length a.Bounds.layers = Array.length b.Bounds.layers
  && Array.for_all2
       (fun (x : Bounds.layer) (y : Bounds.layer) ->
         same_vec x.Bounds.pre_lo y.Bounds.pre_lo
         && same_vec x.Bounds.pre_hi y.Bounds.pre_hi
         && same_vec x.Bounds.post_lo y.Bounds.post_lo
         && same_vec x.Bounds.post_hi y.Bounds.post_hi)
       a.Bounds.layers b.Bounds.layers

let same_deeppoly ~c a b =
  match (a, b) with
  | Deeppoly.Infeasible, Deeppoly.Infeasible -> true
  | Deeppoly.Feasible a, Deeppoly.Feasible b ->
      let itv x = Deeppoly.objective_itv x ~c ~offset:0.5 in
      same_bounds (Deeppoly.bounds a) (Deeppoly.bounds b)
      && same_bits (Deeppoly.objective_lo a ~c ~offset:0.5) (Deeppoly.objective_lo b ~c ~offset:0.5)
      && same_bits (itv a).Itv.lo (itv b).Itv.lo
      && same_bits (itv a).Itv.hi (itv b).Itv.hi
  | _ -> false

let same_zonotope a b =
  match (a, b) with
  | Zonotope.Infeasible, Zonotope.Infeasible -> true
  | Zonotope.Feasible a, Zonotope.Feasible b ->
      same_bounds a.Zonotope.bounds b.Zonotope.bounds
      && Relu_id.Map.equal Int.equal a.Zonotope.relu_terms b.Zonotope.relu_terms
      && a.Zonotope.nterms = b.Zonotope.nterms
      && same_vec a.Zonotope.output_center b.Zonotope.output_center
      && Array.length a.Zonotope.output_gen = Array.length b.Zonotope.output_gen
      && Array.for_all2 same_vec a.Zonotope.output_gen b.Zonotope.output_gen
  | _ -> false

(* Resuming from any donor is the from-scratch analysis, bit for bit:
   each donor/node pair is checked, with the donor whole and cut to its
   first layers, and so is the node resumed once more from its own
   resumed analysis.  A donor of another network (of the same shape) or
   another box (of equal bounds) resumes nothing. *)
let prop_resume_bit_identical =
  QCheck.Test.make ~name:"resumed analyses equal from-scratch ones bit for bit" ~count:300
    QCheck.(make QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let net, d = random_mixed_net rng in
      let box = random_box rng d in
      let ids = Network.relu_ids net in
      let donor_splits, splits = split_pair rng net box ids in
      let c = Array.init (Network.output_dim net) (fun _ -> Rng.uniform rng (-1.0) 1.0) in
      let layers = Rng.int rng (Network.num_layers net + 1) in
      let other_net = Network.map_weights (fun w -> w *. 0.5) net in
      let other_box = Box.make ~lo:(Box.lo box) ~hi:(Box.hi box) in
      let dp_scratch = Deeppoly.analyze net ~box ~splits in
      let zono_scratch = Zonotope.analyze net ~box ~splits in
      let check_dp donor =
        match donor with
        | Deeppoly.Infeasible -> true
        | Deeppoly.Feasible a -> (
            let resumed = Deeppoly.analyze ~reuse:(Deeppoly.prefix a) net ~box ~splits in
            let cut = Deeppoly.truncate ~layers (Deeppoly.prefix a) in
            same_deeppoly ~c resumed dp_scratch
            && same_deeppoly ~c (Deeppoly.analyze ~reuse:cut net ~box ~splits) dp_scratch
            &&
            match resumed with
            | Deeppoly.Feasible again ->
                same_deeppoly ~c (Deeppoly.analyze ~reuse:(Deeppoly.prefix again) net ~box ~splits) dp_scratch
            | Deeppoly.Infeasible -> true)
      in
      let check_zono donor =
        match donor with
        | Zonotope.Infeasible -> true
        | Zonotope.Feasible a -> (
            let resumed = Zonotope.analyze ~reuse:a.Zonotope.prefix ~resumable:true net ~box ~splits in
            let cut = Zonotope.truncate ~layers a.Zonotope.prefix in
            same_zonotope resumed zono_scratch
            && same_zonotope (Zonotope.analyze ~reuse:cut net ~box ~splits) zono_scratch
            &&
            match resumed with
            | Zonotope.Feasible again ->
                same_zonotope (Zonotope.analyze ~reuse:again.Zonotope.prefix net ~box ~splits) zono_scratch
            | Zonotope.Infeasible -> true)
      in
      check_dp (Deeppoly.analyze net ~box ~splits:donor_splits)
      && check_dp (Deeppoly.analyze other_net ~box ~splits:donor_splits)
      && check_dp (Deeppoly.analyze net ~box:other_box ~splits:donor_splits)
      && check_zono (Zonotope.analyze ~resumable:true net ~box ~splits:donor_splits)
      && check_zono (Zonotope.analyze ~resumable:true other_net ~box ~splits:donor_splits)
      && check_zono (Zonotope.analyze ~resumable:true net ~box:other_box ~splits:donor_splits))

(* ---------------- reference kernels ---------------- *)

(* The analyzers as they were before their inner products went through
   [Vec.axpy] and before Zonotope stored each fresh noise symbol as one
   entry of its neuron's row: dense generator rows over all terms, and
   loops that skip every zero.  From scratch only, no resumption. *)
module Reference = struct
  exception Empty_region

  let form_itv center gen =
    let r = Array.fold_left (fun acc g -> acc +. Float.abs g) 0.0 gen in
    (center -. r, center +. r)

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
    (out_centers, out_gens)

  (* One layer of Zonotope: bounds and post-activation forms. *)
  let activate layer li splits relu_terms pre_centers pre_gens nterms =
    let dim = Array.length pre_centers in
    let pre_lo = Array.make dim 0.0 and pre_hi = Array.make dim 0.0 in
    for idx = 0 to dim - 1 do
      let lo, hi = form_itv pre_centers.(idx) pre_gens.(idx) in
      pre_lo.(idx) <- lo;
      pre_hi.(idx) <- hi
    done;
    let bounds post_lo post_hi = { Bounds.pre_lo; pre_hi; post_lo; post_hi } in
    match Layer.classify (Layer.activation layer) with
    | Layer.Linear_activation -> (bounds (Array.copy pre_lo) (Array.copy pre_hi), pre_centers, pre_gens, nterms)
    | Layer.Smooth { f; df } ->
        let nterms' = nterms + dim in
        let centers = Array.make dim 0.0 and gens = Array.init dim (fun _ -> Array.make nterms' 0.0) in
        let post_lo = Array.make dim 0.0 and post_hi = Array.make dim 0.0 in
        for idx = 0 to dim - 1 do
          let l = pre_lo.(idx) and u = pre_hi.(idx) in
          let lambda = Float.min (df l) (df u) in
          let g_lo = f l -. (lambda *. l) and g_hi = f u -. (lambda *. u) in
          centers.(idx) <- (lambda *. pre_centers.(idx)) +. (0.5 *. (g_lo +. g_hi));
          for t = 0 to nterms - 1 do
            gens.(idx).(t) <- lambda *. pre_gens.(idx).(t)
          done;
          gens.(idx).(nterms + idx) <- 0.5 *. (g_hi -. g_lo);
          let lo, hi = form_itv centers.(idx) gens.(idx) in
          post_lo.(idx) <- Float.max lo (f l);
          post_hi.(idx) <- Float.min hi (f u)
        done;
        (bounds post_lo post_hi, centers, gens, nterms')
    | Layer.Piecewise slope ->
        let kind = Array.make dim (`Linear 1.0) in
        let fresh = ref 0 in
        for idx = 0 to dim - 1 do
          match Splits.find (Relu_id.make ~layer:li ~index:idx) splits with
          | Some Splits.Pos ->
              if pre_hi.(idx) < 0.0 then raise Empty_region;
              pre_lo.(idx) <- Float.max 0.0 pre_lo.(idx)
          | Some Splits.Neg ->
              if pre_lo.(idx) > 0.0 then raise Empty_region;
              pre_hi.(idx) <- Float.min 0.0 pre_hi.(idx);
              kind.(idx) <- `Linear slope
          | None ->
              if pre_lo.(idx) >= 0.0 then ()
              else if pre_hi.(idx) <= 0.0 then kind.(idx) <- `Linear slope
              else begin
                kind.(idx) <- `Ambiguous !fresh;
                incr fresh
              end
        done;
        let nterms' = nterms + !fresh in
        let centers = Array.make dim 0.0 and gens = Array.init dim (fun _ -> Array.make nterms' 0.0) in
        let post_lo = Array.make dim 0.0 and post_hi = Array.make dim 0.0 in
        let act v = if v >= 0.0 then v else slope *. v in
        for idx = 0 to dim - 1 do
          (match kind.(idx) with
          | `Linear s ->
              centers.(idx) <- s *. pre_centers.(idx);
              for t = 0 to nterms - 1 do
                gens.(idx).(t) <- s *. pre_gens.(idx).(t)
              done
          | `Ambiguous k ->
              let lb = pre_lo.(idx) and ub = pre_hi.(idx) in
              let lambda = (ub -. (slope *. lb)) /. (ub -. lb) in
              let mu = (1.0 -. slope) *. ub *. -.lb /. (ub -. lb) /. 2.0 in
              centers.(idx) <- (lambda *. pre_centers.(idx)) +. mu;
              for t = 0 to nterms - 1 do
                gens.(idx).(t) <- lambda *. pre_gens.(idx).(t)
              done;
              gens.(idx).(nterms + k) <- mu;
              relu_terms := Relu_id.Map.add (Relu_id.make ~layer:li ~index:idx) (nterms + k) !relu_terms);
          let lo, hi = form_itv centers.(idx) gens.(idx) in
          post_lo.(idx) <- Float.max lo (act pre_lo.(idx));
          post_hi.(idx) <- Float.min hi (act pre_hi.(idx))
        done;
        (bounds post_lo post_hi, centers, gens, nterms')

  (* [Some (bounds, output centers, output generators, relu terms,
     nterms)], or [None] for an empty region. *)
  let zonotope net ~box ~splits =
    let layers = Network.layers net in
    let count = Array.length layers in
    let pre li centers gens nterms =
      let w, b = Network.layer_dense net li in
      affine_image (Mat.row_arrays w) b centers gens nterms
    in
    let d = Box.dim box in
    let centers = Array.init d (fun j -> 0.5 *. (Box.lo_at box j +. Box.hi_at box j)) in
    let gens = Array.init d (fun j -> Array.init d (fun t -> if t = j then 0.5 *. Box.width box j else 0.0)) in
    let relu_terms = ref Relu_id.Map.empty in
    let bounds = Array.make count { Bounds.pre_lo = [||]; pre_hi = [||]; post_lo = [||]; post_hi = [||] } in
    let rec go li (pre_centers, pre_gens) nterms =
      let b, centers, gens, nterms = activate layers.(li) li splits relu_terms pre_centers pre_gens nterms in
      bounds.(li) <- b;
      if li = count - 1 then (centers, gens, nterms) else go (li + 1) (pre (li + 1) centers gens nterms) nterms
    in
    match go 0 (pre 0 centers gens d) d with
    | centers, gens, nterms -> Some ({ Bounds.layers = bounds }, centers, gens, !relu_terms, nterms)
    | exception Empty_region -> None

  (* DeepPoly's back-substitution step. *)
  let step ~lower (lw, lconst, uw, uconst) w c =
    let inner = Array.length lw in
    let prev = if inner = 0 then 0 else Array.length lw.(0) in
    let w' = Array.make_matrix (Array.length w) prev 0.0 in
    let c' = Array.copy c in
    Array.iteri
      (fun r wr ->
        for j = 0 to inner - 1 do
          let coeff = wr.(j) in
          if coeff <> 0.0 then begin
            let take_lower = if lower then coeff > 0.0 else coeff < 0.0 in
            let srow = if take_lower then lw.(j) else uw.(j) in
            c'.(r) <- c'.(r) +. (coeff *. if take_lower then lconst.(j) else uconst.(j));
            for p = 0 to prev - 1 do
              let s = srow.(p) in
              if s <> 0.0 then w'.(r).(p) <- w'.(r).(p) +. (coeff *. s)
            done
          end
        done)
      w;
    (w', c')

  let backsub ~lower syms box ~upto w c =
    let w = ref w and c = ref c in
    for k = upto - 1 downto 0 do
      let w', c' = step ~lower syms.(k) !w !c in
      w := w';
      c := c'
    done;
    Array.init (Array.length !w) (fun r ->
        let acc = ref !c.(r) in
        Array.iteri
          (fun j coeff ->
            if coeff <> 0.0 then
              let take_lo = if lower then coeff >= 0.0 else coeff < 0.0 in
              acc := !acc +. (coeff *. if take_lo then Box.lo_at box j else Box.hi_at box j))
          !w.(r);
        !acc)

  (* [Some (bounds, syms)], or [None] for an empty region. *)
  let deeppoly net ~box ~splits =
    let layers = Network.layers net in
    let count = Array.length layers in
    let syms = Array.make count ([||], [||], [||], [||]) in
    let bounds = Array.make count { Bounds.pre_lo = [||]; pre_hi = [||]; post_lo = [||]; post_hi = [||] } in
    let scaled s row = if s = 1.0 then row else Array.map (fun x -> s *. x) row in
    try
      for li = 0 to count - 1 do
        let wm, b = Network.layer_dense net li in
        let w = Mat.row_arrays wm in
        let dim = Array.length w in
        let pre_lo = backsub ~lower:true syms box ~upto:li w b in
        let pre_hi = backsub ~lower:false syms box ~upto:li w b in
        let lw = Array.make dim [||] and uw = Array.make dim [||] in
        let lconst = Array.make dim 0.0 and uconst = Array.make dim 0.0 in
        let post_lo = Array.make dim 0.0 and post_hi = Array.make dim 0.0 in
        (match Layer.classify (Layer.activation layers.(li)) with
        | Layer.Linear_activation ->
            Array.blit w 0 lw 0 dim;
            Array.blit w 0 uw 0 dim;
            Array.blit b 0 lconst 0 dim;
            Array.blit b 0 uconst 0 dim;
            Array.blit pre_lo 0 post_lo 0 dim;
            Array.blit pre_hi 0 post_hi 0 dim
        | Layer.Smooth { f; df } ->
            for idx = 0 to dim - 1 do
              let l = pre_lo.(idx) and u = pre_hi.(idx) in
              let lambda = Float.min (df l) (df u) in
              lw.(idx) <- scaled lambda w.(idx);
              uw.(idx) <- lw.(idx);
              lconst.(idx) <- (lambda *. b.(idx)) +. (f l -. (lambda *. l));
              uconst.(idx) <- (lambda *. b.(idx)) +. (f u -. (lambda *. u));
              post_lo.(idx) <- f l;
              post_hi.(idx) <- f u
            done
        | Layer.Piecewise slope ->
            let act v = if v >= 0.0 then v else slope *. v in
            for idx = 0 to dim - 1 do
              let lb = pre_lo.(idx) and ub = pre_hi.(idx) in
              let linear s lo hi =
                lw.(idx) <- scaled s w.(idx);
                uw.(idx) <- lw.(idx);
                lconst.(idx) <- (s *. b.(idx)) +. 0.0;
                uconst.(idx) <- lconst.(idx);
                post_lo.(idx) <- lo;
                post_hi.(idx) <- hi
              in
              match Splits.find (Relu_id.make ~layer:li ~index:idx) splits with
              | Some Splits.Pos ->
                  if ub < 0.0 then raise Empty_region;
                  pre_lo.(idx) <- Float.max 0.0 lb;
                  linear 1.0 pre_lo.(idx) ub
              | Some Splits.Neg ->
                  if lb > 0.0 then raise Empty_region;
                  pre_hi.(idx) <- Float.min 0.0 ub;
                  linear slope (slope *. lb) (slope *. pre_hi.(idx))
              | None ->
                  if lb >= 0.0 then linear 1.0 lb ub
                  else if ub <= 0.0 then linear slope (slope *. lb) (slope *. ub)
                  else begin
                    let lambda_u = (ub -. (slope *. lb)) /. (ub -. lb) in
                    uw.(idx) <- scaled lambda_u w.(idx);
                    uconst.(idx) <- (lambda_u *. b.(idx)) +. (lb *. (slope -. lambda_u));
                    let lambda_l = if ub >= -.lb then 1.0 else slope in
                    lw.(idx) <- scaled lambda_l w.(idx);
                    lconst.(idx) <- (lambda_l *. b.(idx)) +. 0.0;
                    post_lo.(idx) <- act lb;
                    post_hi.(idx) <- ub
                  end
            done);
        syms.(li) <- (lw, lconst, uw, uconst);
        bounds.(li) <- { Bounds.pre_lo; pre_hi; post_lo; post_hi }
      done;
      Some ({ Bounds.layers = bounds }, syms)
    with Empty_region -> None
end

(* Every NaN as one value: the sign and payload of a NaN follow the
   operand order the compiler picks for a commutative operation, not
   the arithmetic. *)
let canon v = Array.map (fun x -> if Float.is_nan x then Float.nan else x) v

let canon_bounds (b : Bounds.t) =
  let layer (l : Bounds.layer) =
    { Bounds.pre_lo = canon l.Bounds.pre_lo; pre_hi = canon l.Bounds.pre_hi; post_lo = canon l.Bounds.post_lo; post_hi = canon l.Bounds.post_hi }
  in
  { Bounds.layers = Array.map layer b.Bounds.layers }

let same_canon a b = same_vec (canon a) (canon b)

(* The analyzers equal the reference bit for bit, from scratch and
   resumed from a donor, on random mixed nets (ReLU, leaky ReLU,
   sigmoid, tanh, an optional convolution) over split sets that include
   empty regions.  Some nets have weights pushed past overflow, or
   sparse weights some of them infinite, so non-finite generators,
   coefficients and weights take the kernels' other paths too; one box
   in four is a point, whose zero generators meet those weights. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"analyzers equal the reference kernels bit for bit" ~count:1000
    QCheck.(make QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let net, d = random_mixed_net rng in
      let net =
        match Rng.int rng 8 with
        | 0 -> Network.map_weights (fun w -> w *. 1e200) net
        | 1 -> Network.map_weights (fun w -> if w > 0.7 then infinity else if Float.abs w < 0.4 then 0.0 else w) net
        | 2 -> Network.map_weights (fun w -> if Float.abs w < 0.4 then 0.0 else w) net
        | _ -> net
      in
      let box = random_box rng d in
      let box = if Rng.int rng 4 = 0 then Box.make ~lo:(Box.lo box) ~hi:(Box.lo box) else box in
      let donor_splits, splits = split_pair rng net box (Network.relu_ids net) in
      let c = Array.init (Network.output_dim net) (fun _ -> Rng.uniform rng (-1.0) 1.0) in
      let zono_ok = function
        | Zonotope.Infeasible -> Reference.zonotope net ~box ~splits = None
        | Zonotope.Feasible a -> (
            match Reference.zonotope net ~box ~splits with
            | None -> false
            | Some (bounds, center, gen, relu_terms, nterms) ->
                same_bounds (canon_bounds a.Zonotope.bounds) (canon_bounds bounds)
                && same_canon a.Zonotope.output_center center
                && Array.length a.Zonotope.output_gen = Array.length gen
                && Array.for_all2 same_canon a.Zonotope.output_gen gen
                && Relu_id.Map.equal Int.equal a.Zonotope.relu_terms relu_terms
                && a.Zonotope.nterms = nterms)
      in
      let deeppoly_ok = function
        | Deeppoly.Infeasible -> Reference.deeppoly net ~box ~splits = None
        | Deeppoly.Feasible a -> (
            match Reference.deeppoly net ~box ~splits with
            | None -> false
            | Some (bounds, syms) ->
                let upto = Array.length syms in
                let itv = Deeppoly.objective_itv a ~c ~offset:0.5 in
                same_bounds (canon_bounds (Deeppoly.bounds a)) (canon_bounds bounds)
                && same_canon
                     [| itv.Itv.lo; itv.Itv.hi |]
                     [|
                       (Reference.backsub ~lower:true syms box ~upto [| c |] [| 0.5 |]).(0);
                       (Reference.backsub ~lower:false syms box ~upto [| c |] [| 0.5 |]).(0);
                     |])
      in
      let zono_donor = Zonotope.analyze ~resumable:true net ~box ~splits:donor_splits in
      let dp_donor = Deeppoly.analyze net ~box ~splits:donor_splits in
      zono_ok (Zonotope.analyze net ~box ~splits)
      && deeppoly_ok (Deeppoly.analyze net ~box ~splits)
      && (match zono_donor with
         | Zonotope.Feasible p -> zono_ok (Zonotope.analyze ~reuse:p.Zonotope.prefix net ~box ~splits)
         | Zonotope.Infeasible -> true)
      &&
      match dp_donor with
      | Deeppoly.Feasible p -> deeppoly_ok (Deeppoly.analyze ~reuse:(Deeppoly.prefix p) net ~box ~splits)
      | Deeppoly.Infeasible -> true)

let test_first_difference () =
  let r l i = Relu_id.make ~layer:l ~index:i in
  let s pairs = List.fold_left (fun acc (id, p) -> Splits.add id p acc) Splits.empty pairs in
  let a = s [ (r 0 1, Splits.Pos); (r 2 0, Splits.Neg) ] in
  Alcotest.(check (option int)) "equal" None
    (Splits.first_difference a (s [ (r 2 0, Splits.Neg); (r 0 1, Splits.Pos) ]));
  Alcotest.(check (option int)) "child" (Some 1) (Splits.first_difference a (Splits.add (r 1 3) Splits.Neg a));
  Alcotest.(check (option int)) "sibling" (Some 2)
    (Splits.first_difference a (s [ (r 0 1, Splits.Pos); (r 2 0, Splits.Pos) ]));
  Alcotest.(check (option int)) "missing" (Some 0) (Splits.first_difference a (s [ (r 2 0, Splits.Neg) ]));
  Alcotest.(check (option int)) "empty" (Some 0) (Splits.first_difference Splits.empty a)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("itv ops", `Quick, test_itv_ops);
    ("itv invalid", `Quick, test_itv_invalid);
    ("splits basic", `Quick, test_splits_basic);
    ("splits first difference", `Quick, test_first_difference);
    ("interval sound", `Quick, test_interval_sound);
    ("zonotope sound", `Quick, test_zonotope_sound);
    ("deeppoly sound", `Quick, test_deeppoly_sound);
    ("zonotope exactness vs interval", `Quick, test_zonotope_exactness_vs_interval);
    ("deeppoly objective", `Quick, test_deeppoly_objective);
    ("split refines", `Quick, test_split_refines);
    ("split soundness", `Quick, test_split_soundness_on_consistent_points);
    ("infeasible detection", `Quick, test_infeasible_detection);
    ("zonotope relu terms", `Quick, test_zonotope_relu_terms);
    ("degenerate box", `Quick, test_degenerate_box);
    q prop_domains_sound_random;
    q prop_resume_bit_identical;
    q prop_matches_reference;
    ("diff identical networks", `Quick, test_diff_identical_networks);
    ("diff sound", `Quick, test_diff_sound);
    ("diff shape mismatch", `Quick, test_diff_shape_mismatch);
    ("diff equivalence identical", `Quick, test_diff_equivalence_identical);
    ("diff equivalence quantized", `Quick, test_diff_equivalence_quantized);
    ("diff detects deviation", `Quick, test_diff_detects_deviation);
    ("diff budget", `Quick, test_diff_budget);
  ]
