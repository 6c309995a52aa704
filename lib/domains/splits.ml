module Relu_id = Ivan_nn.Relu_id

type phase = Pos | Neg

type t = phase Relu_id.Map.t

let empty = Relu_id.Map.empty

let is_empty = Relu_id.Map.is_empty

let add r phase t =
  if Relu_id.Map.mem r t then
    invalid_arg (Printf.sprintf "Splits.add: %s already split" (Relu_id.to_string r));
  Relu_id.Map.add r phase t

let find r t = Relu_id.Map.find_opt r t

let mem r t = Relu_id.Map.mem r t

let cardinal = Relu_id.Map.cardinal

let bindings = Relu_id.Map.bindings

let first_difference a b =
  let rec go sa sb =
    match (sa (), sb ()) with
    | Seq.Nil, Seq.Nil -> None
    | Seq.Cons (((r : Relu_id.t), _), _), Seq.Nil | Seq.Nil, Seq.Cons ((r, _), _) -> Some r.layer
    | Seq.Cons (((ra : Relu_id.t), pa), sa'), Seq.Cons (((rb : Relu_id.t), pb), sb') ->
        let c = Relu_id.compare ra rb in
        if c = 0 && pa = pb then go sa' sb' else Some (if c <= 0 then ra.layer else rb.layer)
  in
  if a == b then None else go (Relu_id.Map.to_seq a) (Relu_id.Map.to_seq b)

let negate = function Pos -> Neg | Neg -> Pos

let phase_name = function Pos -> "+" | Neg -> "-"

let pp fmt t =
  Format.fprintf fmt "{";
  List.iter
    (fun (r, p) -> Format.fprintf fmt "%a%s " Relu_id.pp r (phase_name p))
    (bindings t);
  Format.fprintf fmt "}"
