(* Shared test fixtures: small networks and properties with known
   behaviour. *)

module Vec = Ivan_tensor.Vec
module Mat = Ivan_tensor.Mat
module Rng = Ivan_tensor.Rng
module Layer = Ivan_nn.Layer
module Network = Ivan_nn.Network
module Builder = Ivan_nn.Builder
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Analyzer = Ivan_analyzer.Analyzer

let dense ?(activation = Layer.Relu) weights bias =
  Layer.make (Layer.Dense { weights = Mat.of_arrays weights; bias }) activation

(* The paper's running example (Fig. 2): N with weights as printed.
   Layer 1: x1 = relu(2 i1 - i2), x2 = relu(i1 + i2)
   Layer 2: x3 = relu(x1 - 2 x2), x4 = relu(-x1 + x2)
   Output:  o1 = x3 - x4. *)
let paper_net () =
  Network.make
    [
      dense [| [| 2.0; -1.0 |]; [| 1.0; 1.0 |] |] [| 0.0; 0.0 |];
      dense [| [| 1.0; -2.0 |]; [| -1.0; 1.0 |] |] [| 0.0; 0.0 |];
      dense ~activation:Layer.Identity [| [| 1.0; -1.0 |] |] [| 0.0 |];
    ]

(* The paper's property: phi = [0,1]^2, psi = (o1 + 14 >= 0).  o1 is
   bounded well above -14 on this network, so the property holds. *)
let paper_prop () =
  let input = Box.make ~lo:(Vec.of_list [ 0.0; 0.0 ]) ~hi:(Vec.of_list [ 1.0; 1.0 ]) in
  Prop.make ~name:"paper" ~input ~c:(Vec.of_list [ 1.0 ]) ~offset:14.0

(* A tight version of the same property: the exact minimum of o1 over
   [0,1]^2 is -1.5 (attained at (0.5, 1)), so psi = o1 + k >= 0 is true
   iff k >= 1.5. *)
let paper_prop_with_offset k =
  let input = Box.make ~lo:(Vec.of_list [ 0.0; 0.0 ]) ~hi:(Vec.of_list [ 1.0; 1.0 ]) in
  Prop.make ~name:(Printf.sprintf "paper+%g" k) ~input ~c:(Vec.of_list [ 1.0 ]) ~offset:k

(* [a] with the basis of every hint dropped: each node LP is solved
   cold, while DeepPoly and Zonotope still resume from the hint. *)
let cold (a : Analyzer.t) =
  { a with Analyzer.run = (fun ?(hint = Analyzer.no_hint) -> a.Analyzer.run ~hint:{ hint with basis = None }) }

(* A random trained-ish network: random weights scaled down so outputs
   stay moderate. *)
let random_net ~seed ~dims =
  let rng = Rng.create seed in
  Builder.dense_net ~rng ~dims

(* Sample-based soundness check: every sampled point's objective margin
   must respect a claimed lower bound. *)
let check_margin_lb ?(samples = 200) ~seed net prop lb =
  let rng = Rng.create seed in
  let ok = ref true in
  for _ = 1 to samples do
    let x = Box.sample ~rng prop.Prop.input in
    if Prop.margin prop (Network.forward net x) < lb -. 1e-6 then ok := false
  done;
  !ok

(* Brute-force approximate minimum of the objective over the box. *)
let approx_min_margin ?(samples = 2000) ~seed net prop =
  let rng = Rng.create seed in
  let best = ref infinity in
  for _ = 1 to samples do
    let x = Box.sample ~rng prop.Prop.input in
    best := Float.min !best (Prop.margin prop (Network.forward net x))
  done;
  (* also probe the corners of low-dimensional boxes *)
  let d = Box.dim prop.Prop.input in
  if d <= 12 then begin
    let corners = 1 lsl d in
    for mask = 0 to corners - 1 do
      let x =
        Array.init d (fun j ->
            if (mask lsr j) land 1 = 1 then Box.hi_at prop.Prop.input j
            else Box.lo_at prop.Prop.input j)
      in
      best := Float.min !best (Prop.margin prop (Network.forward net x))
    done
  end;
  !best
