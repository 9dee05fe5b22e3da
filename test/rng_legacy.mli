(** The record-based xoshiro256++ generator that {!Taichi_engine.Rng}
    replaced, kept as its oracle: four [mutable int64] fields, which box
    on every store. The properties in [Test_engine] draw from both and
    assert identical streams. *)

type t

val create : seed:int -> t
val split : t -> string -> t
val bits64 : t -> int64
val int : t -> int -> int
val float : t -> float -> float
val bool : t -> bool
