(** The HdrHistogram-style log-linear bucket layout (sub_bucket_bits =
    5) shared by [Taichi_engine.Histogram] and
    [Taichi_metrics.Quantile], so the two can never drift apart.

    Layout: values in [0, 2 * sub_count) map one-to-one to buckets;
    above that, each power-of-two range splits into {!sub_count}
    sub-buckets, giving a bounded ~3% relative error.

    Guarantees, property-tested over the full non-negative int range:
    [upper_of (index_of v) >= v], [index_of] is monotone in [v], and
    [upper_of] is monotone in the bucket index. *)

val sub_count : int

val index_of : int -> int
(** [index_of v] is the bucket holding [v]. [v] must be non-negative. *)

val upper_of : int -> int
(** [upper_of i] is the largest value mapped to bucket [i], saturating
    at [max_int] for the topmost buckets where the exact bound would
    overflow the native int. *)
