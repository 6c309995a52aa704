(* The benchmark's workloads and the inputs each one generates from a
   seed.  Everything that decides how much work a run does lives here:
   models, update, analyzer, heuristic, call budgets and instance
   counts.  The verifier itself only ever sees the generated networks
   and properties. *)

module Network = Ivan_nn.Network
module Quant = Ivan_nn.Quant
module Prop = Ivan_spec.Prop
module Analyzer = Ivan_analyzer.Analyzer
module Heuristic = Ivan_bab.Heuristic
module Bab = Ivan_bab.Bab
module Engine = Ivan_bab.Engine
module Ivan = Ivan_core.Ivan
module Zoo = Ivan_data.Zoo
module Workload = Ivan_harness.Workload

type kind =
  | Relu  (** ReLU splitting with the LP-triangle analyzer (paper §6.1–6.3) *)
  | Acas  (** input splitting with the zonotope analyzer (paper §6.4) *)

type t = {
  name : string;
  kind : kind;
  models : Zoo.spec list;
  calls : int;  (** analyzer-call budget of every BaB run *)
  certify : bool;  (** certificates, artifact checks and a journal per run *)
}

let all =
  [
    { name = "relu-int16"; kind = Relu; models = [ Zoo.fcn_mnist; Zoo.conv_cifar ]; calls = 400; certify = false };
    { name = "acas-int16"; kind = Acas; models = [ Zoo.acas ]; calls = 3000; certify = false };
    {
      name = "relu-certified";
      kind = Relu;
      models = [ Zoo.fcn_mnist; Zoo.conv_cifar ];
      calls = 400;
      certify = true;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Instance sizing, chosen so one pass takes a few seconds and no
   operation fails.  A seed slides the robustness window by 0 to
   [robustness_shift - 1] places along the correctly classified test
   points, so runs with different seeds share most of their instances
   and their totals stay comparable, while a claim can still be
   confirmed on instances it was not tuned on.  The ACAS margin 0.15
   would double the pass time. *)
let robustness_count = 10

let robustness_shift = 3

let acas_margins = [ 0.2; 0.3 ]

let update = Quant.Int16

let budget w = { Bab.max_analyzer_calls = w.calls; max_seconds = infinity }

let config w =
  {
    Ivan.default_config with
    technique = Ivan.Full;
    alpha = 0.25;
    theta = 0.01;
    budget = budget w;
    certify = w.certify;
  }

let analyzer w =
  match w.kind with
  | Relu -> Analyzer.lp_triangle ~certify:w.certify ()
  | Acas -> Analyzer.zonotope ()

let heuristic w = match w.kind with Relu -> Heuristic.zono_coeff | Acas -> Heuristic.input_smear

(* One model of a workload: the original network N, the update N^a and
   the properties to verify on both. *)
type family = { spec : Zoo.spec; net : Network.t; updated : Network.t; props : Prop.t list }

let cache_dir = "_zoo_cache"

let cached spec = Sys.file_exists (Filename.concat cache_dir (spec.Zoo.name ^ ".net"))

(* Training is not part of any measurement: [prepare] fills the cache
   before the first timed run. *)
let prepare w = List.iter (fun spec -> ignore (Zoo.load_or_train ~cache_dir spec)) w.models

let robustness_offset seed = ((seed mod robustness_shift) + robustness_shift) mod robustness_shift

let family w ~seed spec =
  if not (cached spec) then failwith (Printf.sprintf "model %s is not in %s" spec.Zoo.name cache_dir);
  let net = Zoo.load_or_train ~cache_dir spec in
  let updated = Quant.network update net in
  let instances =
    match w.kind with
    | Relu ->
        let offset = robustness_offset seed in
        Workload.robustness_instances ~spec ~net ~count:(offset + robustness_count)
        |> List.filteri (fun i _ -> i >= offset)
    | Acas -> Workload.acas_instances ~net ~margins:acas_margins ~seed
  in
  { spec; net; updated; props = List.map (fun i -> i.Workload.prop) instances }

let setup w ~seed = List.map (family w ~seed) w.models

(* [Engine.fingerprint] of a network under a fixed property over the
   unit input box, so it depends on the weights alone. *)
let fingerprint net =
  let d = Network.input_dim net in
  let input = Ivan_spec.Box.make ~lo:(Array.make d 0.0) ~hi:(Array.make d 1.0) in
  Engine.fingerprint ~net
    ~prop:(Prop.output_upper ~name:"fingerprint" ~input ~index:0 ~bound:0.0 ~num_outputs:(Network.output_dim net))

(* Fingerprints of (N, N^a) for the zoo models as trained when the
   benchmark was defined.  A run on a differing zoo cache says so on its
   [inputs:] line, and must not be compared with runs on the pinned
   one. *)
let pinned =
  [
    ("fcn-mnist", ("460abab57bfc9332ecec3fb0faccd1eb", "974a6f7ca1532919f0d9d9311f7c6415"));
    ("conv-cifar", ("2fb1cc575dbc94d0ed0b0e9132c50826", "9ea7a6bd02fa5b928dc72d37edca9d19"));
    ("acas", ("d4774523bccaae9e115bff14d6c96342", "195424ea6b3930f034f678f11f04dcae"));
  ]

let matches_pinned f =
  match List.assoc_opt f.spec.Zoo.name pinned with
  | Some (n, u) -> n = fingerprint f.net && u = fingerprint f.updated
  | None -> false
