(** The sockperf workload (Table 3): [udp] is single-stream ping-pong
    latency, reporting average, p99 and p999 latency, the Fig 14 latency
    series. *)

open Taichi_engine

val udp :
  Client.t -> Rng.t -> cores:int list -> until:Time_ns.t -> Rr_engine.result

type udp_latency = { avg_us : float; p99_us : float; p999_us : float }

val udp_summary : Rr_engine.result -> udp_latency
