(** ReLU split assumptions.

    A subproblem of BaB with ReLU splitting carries, for a subset of the
    architecture's ReLUs, the assumed phase: [Pos] for the predicate
    [x_hat >= 0] (the paper's [r+]) and [Neg] for [x_hat < 0] ([r-]). *)

type phase = Pos | Neg

type t

val empty : t

val is_empty : t -> bool

val add : Ivan_nn.Relu_id.t -> phase -> t -> t
(** @raise Invalid_argument if the ReLU is already split (a BaB path
    never splits the same unit twice). *)

val find : Ivan_nn.Relu_id.t -> t -> phase option

val mem : Ivan_nn.Relu_id.t -> t -> bool

val cardinal : t -> int

val bindings : t -> (Ivan_nn.Relu_id.t * phase) list

val first_difference : t -> t -> int option
(** The lowest layer on which the two split sets disagree — a ReLU split
    in one and not the other, or split with opposite phases — or [None]
    when they are equal. *)

val negate : phase -> phase

val phase_name : phase -> string

val pp : Format.formatter -> t -> unit
