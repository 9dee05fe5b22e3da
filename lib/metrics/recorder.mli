(** Named measurement recorders.

    A recorder bundles a latency histogram with streaming statistics under
    a name, giving experiments one object to thread through the system per
    metric (e.g. "ping.rtt", "fio.read"). *)

open Taichi_engine

type t

val create : string -> t
val name : t -> string

val observe : t -> Time_ns.t -> unit
(** [observe r v] records one latency (or any integral) sample. *)

val count : t -> int
(** Number of {!observe}d samples. *)

val mean : t -> float
val stddev : t -> float
val min_value : t -> int
val max_value : t -> int
val percentile : t -> float -> int
val histogram : t -> Histogram.t
val clear : t -> unit

val throughput_per_sec : t -> duration:Time_ns.t -> float
(** [throughput_per_sec r ~duration] is [count r] divided by [duration] in
    seconds. *)

val pp_summary : Format.formatter -> t -> unit
