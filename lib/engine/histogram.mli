(** Log-bucketed histograms for latency-style measurements.

    Values (typically nanoseconds) are binned with HDR-style geometric
    resolution: each power-of-two range is split into a fixed number of
    sub-buckets, keeping relative quantile error below ~1.6% with 64
    sub-buckets while using bounded memory regardless of range. Exact min,
    max, count and sum are tracked separately. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** [add h v] records observation [v]; negative values are clamped to 0. *)

val count : t -> int
val mean : t -> float
val min_value : t -> int
(** Raises [Invalid_argument] when empty. *)

val max_value : t -> int
(** Raises [Invalid_argument] when empty. *)

val percentile : t -> float -> int
(** [percentile h p] is an upper bound on the [p]-th percentile value
    ([p] in [\[0, 100\]]). Raises [Invalid_argument] when empty. *)

val cdf_points : t -> (int * float) list
(** [cdf_points h] lists [(value_upper_bound, cumulative_fraction)] for
    every non-empty bucket, in increasing value order — the series used to
    plot a CDF. *)

val fraction_below : t -> int -> float
(** [fraction_below h v] is the fraction of observations strictly below
    bucket boundary nearest [v]. *)

val merge : t -> t -> t

val clear : t -> unit
