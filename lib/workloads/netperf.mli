(** The netperf workload family (Table 3).

    - [udp_stream]: 64-connection windowed UDP send; average RX bandwidth.
    - [tcp_stream]: 64-connection windowed TCP stream with ACK traffic;
      RX/TX packets per second.
    - [tcp_rr]: 1024-connection request/response over long-lived
      connections.
    - [tcp_crr]: connect/request/response/close per transaction — the
      Fig 12 benchmark, reporting connections per second and RX/TX pps. *)

open Taichi_engine
open Taichi_metrics

type stream_result = {
  rx_done : int ref;
  tx_done : int ref;
  data_latency : Recorder.t;
}

val stream :
  ?gap_mean:Time_ns.t ->
  Client.t ->
  Rng.t ->
  connections:int ->
  window:int ->
  size:int ->
  with_acks:bool ->
  cores:int list ->
  until:Time_ns.t ->
  stream_result
(** Windowed closed-loop stream: each connection keeps [window] packets in
    flight; with [with_acks] every second data packet triggers a TX ACK
    through the data plane. [gap_mean] adds exponential client-side pacing
    between resubmissions (bursty traffic with real idle windows). *)

val udp_stream :
  Client.t -> Rng.t -> cores:int list -> until:Time_ns.t -> stream_result

val tcp_stream :
  Client.t -> Rng.t -> cores:int list -> until:Time_ns.t -> stream_result

val stream_rx_pps : stream_result -> duration:Time_ns.t -> float
val stream_tx_pps : stream_result -> duration:Time_ns.t -> float

val tcp_rr :
  Client.t -> Rng.t -> cores:int list -> until:Time_ns.t -> Rr_engine.result
(** 1024 concurrent long connections (Table 3). *)

val tcp_crr :
  Client.t -> Rng.t -> cores:int list -> until:Time_ns.t -> Rr_engine.result
(** Connect/request/response/close; [Rr_engine.tps] is the CPS metric. *)
