(** Deterministic, splittable pseudo-random number generation.

    Every stochastic simulator component draws from its own named stream
    derived from a single root seed, so adding a component never perturbs
    the draws seen by the others and every experiment is reproducible
    bit-for-bit from its seed. The core generator is xoshiro256++ seeded by
    splitmix64. *)

type t
(** A generator state. *)

val create : seed:int -> t
(** [create ~seed] is a root generator derived from [seed]. *)

val split : t -> string -> t
(** [split rng name] derives an independent stream identified by [name].
    The child depends on the parent's current state and [name]: a split
    taken after the parent has drawn differs from one taken before.
    [split] does not advance the parent. *)

val bits64 : t -> int64
(** [bits64 rng] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int rng n] is uniform in [\[0, n)]. Raises [Invalid_argument] when
    [n <= 0]. *)

val int_range : t -> lo:int -> hi:int -> int
(** [int_range rng ~lo ~hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float rng x] is uniform in [\[0, x)]. *)

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** [bernoulli rng ~p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** [shuffle rng a] permutes [a] in place uniformly (Fisher–Yates). *)
