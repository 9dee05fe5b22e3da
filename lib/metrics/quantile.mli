(** Online sliding-window quantile sketch.

    The overload governor needs "p99 data-plane latency over the last few
    milliseconds" as a *live* signal, sampled every few hundred
    microseconds — [Recorder]'s histogram accumulates since the epoch and
    cannot forget. This sketch keeps a ring of per-time-slice sample
    logs over a fixed window, plus an aggregate of log-bucketed counts
    (HdrHistogram-style buckets, 32 sub-buckets per power of two,
    clamped at bucket 1,023): observations land in the slice covering
    simulated [now]; slices older than the window are evicted lazily on
    the next [observe]/[count]/[quantile] call.

    Each slice logs the bucket index of each of its samples. A log grows
    by doubling and is reused when its slot turns over, so [observe]
    allocates only while a slice's log first grows to its working size;
    a fresh 8-slice sketch is about 1 K words, most of it the aggregate.

    Quantiles are read from the aggregate bucket counts, walking down
    from the highest occupied bucket, and reported as the bucket's upper
    bound, so the estimate errs high (conservative for a latency
    guardrail) by at most one sub-bucket width (~3%).

    Everything is integer arithmetic driven by the simulated clock, so a
    sketch fed the same samples at the same times answers bit-identically
    — the determinism contract every governor decision inherits. *)

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
