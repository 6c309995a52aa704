(* Chaos matrix: kill/resume sweeps over journaled verification runs.

   For every workload the harness runs one uninterrupted golden run,
   then simulates kills after every journal append, torn writes at
   every byte offset of the final frame, a corrupted byte in every
   frame, and a double-kill chain — resuming each time from the
   surviving journal bytes and asserting the resumed run reproduces the
   golden verdict and stats exactly, with at most one node of rework.

   Run via the alias:  dune build @chaos-matrix *)

module Vec = Ivan_tensor.Vec
module Mat = Ivan_tensor.Mat
module Layer = Ivan_nn.Layer
module Network = Ivan_nn.Network
module Box = Ivan_spec.Box
module Prop = Ivan_spec.Prop
module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Frontier = Ivan_bab.Frontier
module Engine = Ivan_bab.Engine
module Chaos = Ivan_supervise.Chaos

(* The paper's running example (Fig. 2), self-contained: this
   executable builds in its own directory and cannot see test/
   fixtures. *)
let net =
  let dense ?(activation = Layer.Relu) weights bias =
    Layer.make (Layer.Dense { weights = Mat.of_arrays weights; bias }) activation
  in
  Network.make
    [
      dense [| [| 2.0; -1.0 |]; [| 1.0; 1.0 |] |] [| 0.0; 0.0 |];
      dense [| [| 1.0; -2.0 |]; [| -1.0; 1.0 |] |] [| 0.0; 0.0 |];
      dense ~activation:Layer.Identity [| [| 1.0; -1.0 |] |] [| 0.0 |];
    ]

(* psi = (o1 + k >= 0) over [0,1]^2; the exact minimum of o1 is -1.5,
   so k = 1.3 is violated and k = 1.7 holds. *)
let prop offset =
  let input = Box.make ~lo:(Vec.of_list [ 0.0; 0.0 ]) ~hi:(Vec.of_list [ 1.0; 1.0 ]) in
  Prop.make
    ~name:(Printf.sprintf "paper+%g" offset)
    ~input ~c:(Vec.of_list [ 1.0 ]) ~offset

(* Warm starts stay off in chaos workloads: parked simplex bases are a
   performance cache that is deliberately not journaled, so a resumed
   run solves colder — with every hint's basis dropped, every LP stat
   is deterministic and must replay exactly. *)
let cold_lp ?certify () =
  let a = Analyzer.lp_triangle ?certify () in
  { a with Analyzer.run = (fun ?(hint = Analyzer.no_hint) -> a.Analyzer.run ~hint:{ hint with basis = None }) }

let workloads =
  [
    Chaos.workload ~name:"lp/proved" ~net ~prop:(prop 1.7)
      ~analyzer:cold_lp
      ~heuristic:Heuristic.zono_coeff ();
    Chaos.workload ~name:"lp/disproved" ~net ~prop:(prop 1.3)
      ~analyzer:cold_lp
      ~heuristic:Heuristic.zono_coeff ();
    Chaos.workload ~name:"lp/exhausted" ~net ~prop:(prop 1.7)
      ~analyzer:cold_lp
      ~heuristic:Heuristic.zono_coeff
      ~budget:{ Engine.max_analyzer_calls = 3; max_seconds = infinity }
      ();
    Chaos.workload ~name:"lp/certified" ~net ~prop:(prop 1.7)
      ~analyzer:(fun () -> cold_lp ~certify:true ())
      ~heuristic:Heuristic.zono_coeff ~certify:true ();
    Chaos.workload ~name:"zono/proved-bestfirst" ~net ~prop:(prop 1.7)
      ~analyzer:(fun () -> Analyzer.zonotope ())
      ~heuristic:Heuristic.input_smear ~strategy:Frontier.Best_first ();
    Chaos.workload ~name:"zono/disproved-lifo" ~net ~prop:(prop 1.3)
      ~analyzer:(fun () -> Analyzer.zonotope ())
      ~heuristic:Heuristic.input_smear ~strategy:Frontier.Lifo ();
    (* journal_every = 1 checkpoints after every step — the densest
       cadence, so every kill lands at most one Step frame from a
       Checkpoint. *)
    Chaos.workload ~name:"lp/ckpt-every-step" ~net ~prop:(prop 1.7)
      ~analyzer:cold_lp
      ~heuristic:Heuristic.zono_coeff ~journal_every:1 ();
    (* A sparse cadence exercises long replays. *)
    Chaos.workload ~name:"zono/ckpt-sparse" ~net ~prop:(prop 1.7)
      ~analyzer:(fun () -> Analyzer.zonotope ())
      ~heuristic:Heuristic.input_smear ~journal_every:64 ();
  ]

let () =
  let report = Chaos.run_matrix workloads in
  Format.printf "%a@." Chaos.pp_report report;
  if report.Chaos.failures <> [] then begin
    Format.printf "chaos matrix FAILED@.";
    exit 1
  end;
  if report.Chaos.schedules = 0 then begin
    Format.printf "chaos matrix ran no schedules@.";
    exit 1
  end
