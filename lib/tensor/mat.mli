(** Dense row-major float matrices. *)

type t

val create : int -> int -> float -> t
(** [create rows cols x] is the [rows × cols] matrix filled with [x]. *)

val zeros : int -> int -> t

val identity : int -> t

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] has entry [f i j] at row [i], column [j]. *)

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val copy : t -> t

val of_arrays : float array array -> t
(** @raise Invalid_argument if rows have unequal lengths. *)

val to_arrays : t -> float array array

val row : t -> int -> Vec.t
(** [row m i] is a fresh copy of row [i]. *)

val row_arrays : t -> float array array
(** The matrix's own rows, not copies: for hot loops that read a
    matrix row by row.  Never write them. *)

val col : t -> int -> Vec.t

val transpose : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val map : (float -> float) -> t -> t

val matvec : t -> Vec.t -> Vec.t
(** [matvec m x] is [m · x], one {!Vec.dot} per row.
    @raise Invalid_argument on mismatch. *)

val matvec_t : t -> Vec.t -> Vec.t
(** [matvec_t m x] is [mᵀ · x] without materializing the transpose,
    accumulated row by row with {!Vec.axpy}: rows with [x.(i) = 0.] are
    skipped, and so are the zero entries of a row whose [x.(i)] is not
    finite.  @raise Invalid_argument on mismatch. *)

val matmul : t -> t -> t

val frobenius_norm : t -> float

val max_abs : t -> float
(** Largest absolute entry. *)

val equal : ?eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
