(* Host-speed calibration.

   A virtual machine shared with other tenants changes speed in steps
   of up to 2x that last from seconds to minutes; the same code on the
   same inputs then measures 15-30% apart between runs.  A fixed
   reference computation timed alongside the measured work slows down
   with it.  End-to-end times are reported in calibrated seconds:
   measured seconds times [nominal_tick_s] over the mean of the ticks
   taken right before and right after, i.e. seconds on a host where one
   tick takes [nominal_tick_s].

   The kernel is dense float work like the verifier's hot loops
   (matrix-vector products and simplex-style row updates) on fixed,
   preallocated data, so it allocates nothing and no change to the
   verifier can alter it. *)

let nominal_tick_s = 0.0015

let rows = 200

let matrix = Array.init (rows * rows) (fun i -> float_of_int ((i * 31) mod 97) /. 97.0)

let vector = Array.init rows (fun i -> float_of_int (i mod 13) /. 13.0)

let product = Array.make rows 0.0

let width = 128

let tableau = Array.init (64 * width) (fun i -> float_of_int ((i * 7919) mod 101) /. 50.0 -. 1.0)

let updated = Array.make (64 * width) 0.0

let kernel () =
  for _ = 1 to 6 do
    for i = 0 to rows - 1 do
      let s = ref 0.0 in
      for j = 0 to rows - 1 do
        s := !s +. (matrix.((i * rows) + j) *. vector.(j))
      done;
      product.(i) <- !s
    done
  done;
  (* Row updates read the fixed tableau only, so values never drift
     towards overflow or denormals. *)
  for p = 0 to 63 do
    let pivot = tableau.((p * width) + p) +. 3.0 in
    for i = 0 to 63 do
      let f = tableau.((i * width) + p) /. pivot in
      for j = 0 to width - 1 do
        updated.((i * width) + j) <- tableau.((i * width) + j) -. (f *. tableau.((p * width) + j))
      done
    done
  done

(* Seconds one run of the kernel takes now. *)
let tick () = snd (Ivan_clock.Clock.timed kernel)

(* The ticks of one measurement.  Consecutive timed spans share the
   tick between them. *)
type t = { mutable last : float option; mutable ticks : int; mutable tick_s : float }

let create () = { last = None; ticks = 0; tick_s = 0.0 }

let sample t =
  let s = tick () in
  t.ticks <- t.ticks + 1;
  t.tick_s <- t.tick_s +. s;
  t.last <- Some s;
  s

(* [timed t f] runs [f] between two ticks and returns its result, its
   measured seconds, and its calibrated seconds: measured seconds times
   [nominal_tick_s] over the mean of the two ticks. *)
let timed t f =
  let before = match t.last with Some s -> s | None -> sample t in
  let v, seconds = Ivan_clock.Clock.timed f in
  let after = sample t in
  (v, seconds, seconds *. nominal_tick_s /. ((before +. after) /. 2.0))

let mean_tick_s t = if t.ticks = 0 then nan else t.tick_s /. float_of_int t.ticks
