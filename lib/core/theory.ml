module Vec = Ivan_tensor.Vec
module Network = Ivan_nn.Network
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Bounds = Ivan_domains.Bounds
module Analyzer = Ivan_analyzer.Analyzer
module Tree = Ivan_spectree.Tree

(* The analyzer's outcome on every leaf subproblem, in leaf order and
   on demand.  Each call gets the previous call's hint without its
   basis, as the BaB engine gives a node with nothing parked: the
   property's LP encoding is built once, not once per leaf. *)
let leaf_outcomes ~analyzer net ~prop tree =
  let rec from hint leaves () =
    match leaves with
    | [] -> Seq.Nil
    | leaf :: rest ->
        let box, splits = Tree.subproblem ~root_box:prop.Prop.input leaf in
        let o = analyzer.Analyzer.run ~hint net ~prop ~box ~splits in
        Seq.Cons (o, from { o.Analyzer.hint with basis = None } rest)
  in
  from Analyzer.no_hint (Tree.leaves tree)

let fold_leaves ~analyzer net ~prop tree ~init ~f =
  Seq.fold_left f init (leaf_outcomes ~analyzer net ~prop tree)

let leaf_objective_lb ~analyzer net ~prop tree =
  fold_leaves ~analyzer net ~prop tree ~init:infinity ~f:(fun acc outcome ->
      Float.min acc outcome.Analyzer.lb)

(* L2-norm bound of the penultimate layer's post-activations for one
   leaf, from the analyzer's per-neuron bounds; the input box itself
   plays that role for single-layer networks. *)
let leaf_eta net ~prop outcome =
  let penultimate = Network.num_layers net - 2 in
  if penultimate < 0 then begin
    let box = prop.Prop.input in
    let acc = ref 0.0 in
    for j = 0 to Box.dim box - 1 do
      let m = Float.max (Float.abs (Box.lo_at box j)) (Float.abs (Box.hi_at box j)) in
      acc := !acc +. (m *. m)
    done;
    Some (sqrt !acc)
  end
  else
    match outcome.Analyzer.bounds with
    | None -> None (* vacuous leaf: contributes nothing *)
    | Some bounds ->
        let layer = bounds.Bounds.layers.(penultimate) in
        let acc = ref 0.0 in
        for j = 0 to Vec.dim layer.Bounds.post_lo - 1 do
          let m =
            Float.max (Float.abs layer.Bounds.post_lo.(j)) (Float.abs layer.Bounds.post_hi.(j))
          in
          acc := !acc +. (m *. m)
        done;
        Some (sqrt !acc)

let eta ~analyzer net ~prop tree =
  fold_leaves ~analyzer net ~prop tree ~init:0.0 ~f:(fun acc outcome ->
      match leaf_eta net ~prop outcome with None -> acc | Some v -> Float.max acc v)

let delta_bound ~analyzer net ~prop tree =
  let lb = leaf_objective_lb ~analyzer net ~prop tree in
  let e = eta ~analyzer net ~prop tree in
  let cnorm = Vec.norm2 prop.Prop.c in
  if e = 0.0 || cnorm = 0.0 || lb = infinity then infinity
  else Float.abs lb /. (cnorm *. e)

let verified_with_tree ~analyzer net ~prop tree =
  Seq.for_all
    (fun o ->
      match o.Analyzer.status with
      | Analyzer.Verified -> true
      | Analyzer.Counterexample _ | Analyzer.Unknown -> false)
    (leaf_outcomes ~analyzer net ~prop tree)
