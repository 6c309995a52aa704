(* Row-major storage, one array per row: entry (i, j) lives at
   [data.(i).(j)].  The rows are never shared between matrices, so
   {!row_arrays} can hand them out without copying. *)
type t = { rows : int; cols : int; data : float array array }

let create rows cols x =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.init rows (fun _ -> Array.make cols x) }

let zeros rows cols = create rows cols 0.0

let init rows cols f =
  if rows < 0 || cols < 0 then invalid_arg "Mat.init: negative dimension";
  { rows; cols; data = Array.init rows (fun i -> Array.init cols (fun j -> f i j)) }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let rows m = m.rows

let cols m = m.cols

let get m i j = m.data.(i).(j)

let set m i j x = m.data.(i).(j) <- x

let copy m = { m with data = Array.map Array.copy m.data }

let of_arrays a =
  let rows = Array.length a in
  let cols = if rows = 0 then 0 else Array.length a.(0) in
  Array.iter (fun r -> if Array.length r <> cols then invalid_arg "Mat.of_arrays: ragged rows") a;
  init rows cols (fun i j -> a.(i).(j))

let to_arrays m = Array.map Array.copy m.data

let row m i = Array.copy m.data.(i)

let row_arrays m = m.data

let col m j = Array.init m.rows (fun i -> get m i j)

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let check_same name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.%s: shape mismatch (%dx%d vs %dx%d)" name a.rows a.cols b.rows b.cols)

let map2 f a b = { a with data = Array.map2 (Array.map2 f) a.data b.data }

let add a b =
  check_same "add" a b;
  map2 ( +. ) a b

let sub a b =
  check_same "sub" a b;
  map2 ( -. ) a b

let map f m = { m with data = Array.map (Array.map f) m.data }

let scale s m = map (fun x -> s *. x) m

let matvec m x =
  if Array.length x <> m.cols then
    invalid_arg (Printf.sprintf "Mat.matvec: %dx%d with vector of dim %d" m.rows m.cols (Array.length x));
  Array.map (fun r -> Vec.dot r x) m.data

let matvec_t m x =
  if Array.length x <> m.rows then
    invalid_arg (Printf.sprintf "Mat.matvec_t: %dx%d with vector of dim %d" m.rows m.cols (Array.length x));
  let y = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then Vec.axpy xi m.data.(i) y
  done;
  y

let matmul a b =
  if a.cols <> b.rows then
    invalid_arg (Printf.sprintf "Mat.matmul: %dx%d times %dx%d" a.rows a.cols b.rows b.cols);
  let c = zeros a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          set c i j (get c i j +. (aik *. get b k j))
        done
    done
  done;
  c

let fold f init m = Array.fold_left (Array.fold_left f) init m.data

let frobenius_norm m = sqrt (fold (fun acc x -> acc +. (x *. x)) 0.0 m)

let max_abs m = fold (fun acc x -> Float.max acc (Float.abs x)) 0.0 m

let equal ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (Array.for_all2 (fun x y -> not (Float.abs (x -. y) > eps))) a.data b.data

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  Array.iter (fun r -> Format.fprintf fmt "%a@," Vec.pp r) m.data;
  Format.fprintf fmt "@]"
