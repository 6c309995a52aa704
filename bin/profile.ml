(* Microprofiler: per-call cost of the bound engines and the LP analyzer
   on a zoo model.  A development tool, handy when tuning the domains.

   Usage:  dune exec bin/profile.exe <model-name>  *)

module Zoo = Ivan_data.Zoo
module Splits = Ivan_domains.Splits
module Deeppoly = Ivan_domains.Deeppoly
module Zonotope = Ivan_domains.Zonotope
module Analyzer = Ivan_analyzer.Analyzer
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "fcn-mnist" in
  let spec = Zoo.find name in
  let net = Zoo.load_or_train spec in
  let inputs, labels = Zoo.test_set spec in
  let prop =
    Prop.robustness ~name:"profile" ~center:inputs.(0) ~eps:spec.Zoo.eps ~target:labels.(0)
      ~adversary:((labels.(0) + 1) mod 10)
      ~num_outputs:10 ~clip:(Some (0.0, 1.0))
  in
  let box = prop.Prop.input in
  let time name n f =
    let (), seconds =
      Ivan_clock.Clock.timed (fun () ->
          for _ = 1 to n do
            ignore (f ())
          done)
    in
    Printf.printf "%-14s %7.2f ms/call\n%!" name (seconds /. float_of_int n *. 1000.0)
  in
  time "deeppoly" 20 (fun () -> Deeppoly.analyze net ~box ~splits:Splits.empty);
  time "zonotope" 20 (fun () -> Zonotope.analyze net ~box ~splits:Splits.empty);
  (* Each call gets the previous call's LP encoding and nothing else:
     the encoding is built once, every call still runs DeepPoly,
     Zonotope and a cold LP solve. *)
  let lp = Analyzer.lp_triangle ~deeppoly_shortcut:false () in
  let hint = ref Analyzer.no_hint in
  time "lp-analyzer" 5 (fun () ->
      let o = lp.Analyzer.run ~hint:!hint net ~prop ~box ~splits:Splits.empty in
      hint := { Analyzer.no_hint with encoding = o.Analyzer.hint.Analyzer.encoding })
