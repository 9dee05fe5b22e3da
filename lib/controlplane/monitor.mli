(** Performance-monitoring and orchestration control-plane tasks (§2.3
    categories 2 and 3).

    Long-lived background tasks: metric collectors that periodically read
    SmartNIC counters (a short non-preemptible register access) and flush
    logs, and an orchestration agent that exchanges keepalives with
    cluster management. They provide the steady control-plane background
    load present in every experiment. *)

open Taichi_engine
open Taichi_os

val metrics_collector :
  rng:Rng.t ->
  period:Time_ns.t ->
  affinity:int list ->
  name:string ->
  Task.t
(** Forever: collect (user 80 µs) + register read (non-preemptible,
    Fig 5 body) + log write (preemptible kernel 150 µs) + sleep. *)

val standard_background :
  rng:Rng.t -> affinity:int list -> unit -> Task.t list
(** The default background mix: two collectors (10 ms and 50 ms), one log
    flusher (100 ms) and one orchestration agent (25 ms). *)

val production_ecosystem :
  rng:Rng.t ->
  affinity:int list ->
  tasks:int ->
  target_util:float ->
  unit ->
  Task.t list
(** A production-scale control-plane ecosystem (§3.2 reports 300-500
    heterogeneous tasks): [tasks] long-lived tasks with randomized periods
    and work sizes whose aggregate CPU demand is [target_util] cores.
    Each task mixes user compute, non-preemptible routines and sleeps. *)
