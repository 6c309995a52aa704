type t = float array

let create n x = Array.make n x

let zeros n = Array.make n 0.0

let init = Array.init

let dim = Array.length

let copy = Array.copy

let of_list = Array.of_list

let to_list = Array.to_list

let get (v : t) i = v.(i)

let set (v : t) i x = v.(i) <- x

let check_dims name a b =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name (Array.length a) (Array.length b))

let add a b =
  check_dims "add" a b;
  Array.init (Array.length a) (fun i -> a.(i) +. b.(i))

let sub a b =
  check_dims "sub" a b;
  Array.init (Array.length a) (fun i -> a.(i) -. b.(i))

let scale s a = Array.map (fun x -> s *. x) a

(* The analyzers' inner kernel.  Without a zero test per entry it is
   bit-identical to a loop that skips [x.(k) = 0] whenever [a] is
   finite and [y] holds no [-0.]: the skipped products are then [±0],
   and adding [±0] to anything but [-0.] changes nothing.  A non-finite
   [a] would turn those products into NaN, so it takes the skipping
   loop. *)
let axpy a (x : t) (y : t) =
  let n = Array.length x in
  if n > Array.length y then
    invalid_arg (Printf.sprintf "Vec.axpy: x longer than y (%d vs %d)" n (Array.length y));
  if Float.is_finite a then begin
    let n4 = n - (n land 3) in
    let k = ref 0 in
    while !k < n4 do
      let i = !k in
      Array.unsafe_set y i (Array.unsafe_get y i +. (a *. Array.unsafe_get x i));
      Array.unsafe_set y (i + 1) (Array.unsafe_get y (i + 1) +. (a *. Array.unsafe_get x (i + 1)));
      Array.unsafe_set y (i + 2) (Array.unsafe_get y (i + 2) +. (a *. Array.unsafe_get x (i + 2)));
      Array.unsafe_set y (i + 3) (Array.unsafe_get y (i + 3) +. (a *. Array.unsafe_get x (i + 3)));
      k := i + 4
    done;
    for i = n4 to n - 1 do
      Array.unsafe_set y i (Array.unsafe_get y i +. (a *. Array.unsafe_get x i))
    done
  end
  else
    for i = 0 to n - 1 do
      let xi = Array.unsafe_get x i in
      if xi <> 0.0 then Array.unsafe_set y i (Array.unsafe_get y i +. (a *. xi))
    done

let mul a b =
  check_dims "mul" a b;
  Array.init (Array.length a) (fun i -> a.(i) *. b.(i))

(* Summed left to right, as a plain loop would: the unrolled body
   adds its four products to the accumulator one after the other. *)
let dot (a : t) (b : t) =
  check_dims "dot" a b;
  let n = Array.length a in
  let n4 = n - (n land 3) in
  let acc = ref 0.0 in
  let k = ref 0 in
  while !k < n4 do
    let i = !k in
    acc :=
      !acc
      +. (Array.unsafe_get a i *. Array.unsafe_get b i)
      +. (Array.unsafe_get a (i + 1) *. Array.unsafe_get b (i + 1))
      +. (Array.unsafe_get a (i + 2) *. Array.unsafe_get b (i + 2))
      +. (Array.unsafe_get a (i + 3) *. Array.unsafe_get b (i + 3));
    k := i + 4
  done;
  for i = n4 to n - 1 do
    acc := !acc +. (Array.unsafe_get a i *. Array.unsafe_get b i)
  done;
  !acc

let norm2 a = sqrt (dot a a)

let norm_inf a = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 a

let max_elt a =
  if Array.length a = 0 then invalid_arg "Vec.max_elt: empty vector";
  Array.fold_left Float.max a.(0) a

let min_elt a =
  if Array.length a = 0 then invalid_arg "Vec.min_elt: empty vector";
  Array.fold_left Float.min a.(0) a

let argmax a =
  if Array.length a = 0 then invalid_arg "Vec.argmax: empty vector";
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if a.(i) > a.(!best) then best := i
  done;
  !best

let map = Array.map

let map2 f a b =
  check_dims "map2" a b;
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let relu a = Array.map (fun x -> Float.max 0.0 x) a

let equal ?(eps = 1e-9) a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       for i = 0 to Array.length a - 1 do
         if Float.abs (a.(i) -. b.(i)) > eps then ok := false
       done;
       !ok
     end

let pp fmt v =
  Format.fprintf fmt "[@[%a@]]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";@ ") (fun f x -> Format.fprintf f "%g" x))
    (Array.to_list v)
