(** The dense sliding-window sketch that {!Taichi_metrics.Quantile}
    replaced, kept as its oracle: every slice owns a dense
    1,024-bucket row, eviction scans the row, and [quantile] scans the
    aggregate up from bucket 0. The qcheck property in [Test_metrics]
    drives random observe/count/quantile programs through both and
    asserts identical answers. *)

open Taichi_engine

type t

val create : ?slices:int -> slice:Time_ns.t -> unit -> t
(** [create ~slice ()] is an empty sketch whose window is
    [slices * slice] (default 8 slices). Raises [Invalid_argument] when
    [slice <= 0] or [slices <= 0]. *)

val window : t -> Time_ns.t
(** Total window covered by the ring. *)

val observe : t -> now:Time_ns.t -> Time_ns.t -> unit
(** [observe t ~now v] records sample [v] (clamped at 0) in the slice
    covering [now], first expiring slices that fell out of the window. *)

val count : t -> now:Time_ns.t -> int
(** Samples currently inside the window. *)

val quantile : t -> now:Time_ns.t -> float -> Time_ns.t option
(** [quantile t ~now q] is the [q]-th percentile (0..100) of the samples
    in the window ending at [now], or [None] when the window holds no
    samples. Raises [Invalid_argument] for [q] outside [0, 100]. *)
