(** Shared plumbing for the experiment drivers.

    Carries no mutable module state: tracing, experiment labels, audit
    mode and the harvest of finished runs all flow through the explicit
    {!Run_ctx.t} a caller passes in (the sweep derives one per cell). *)

open Taichi_engine
open Taichi_os

val scaled : float -> Time_ns.t -> Time_ns.t
(** [scaled s d] shrinks duration [d] by scale [s], floored at 10 ms. *)

val harvest_run : ctx:Run_ctx.t -> seed:int -> System.t -> unit
(** Snapshot one finished system into the context's sink (an
    {!Taichi_metrics.Export.run} labelled with the context's experiment
    name). {!with_system} calls this automatically; the fleet harness —
    which keeps N systems alive across one run — calls it per NIC, under
    a per-NIC experiment label. *)

val check_audit : ctx:Run_ctx.t -> seed:int -> System.t -> unit
(** The machine-wide coherence check {!with_system} runs after the body:
    abort or collect per the context's audit mode. Exposed for the fleet
    harness, which audits each surviving NIC. *)

val fingerprint : (string * System.t) list -> string list -> string
(** [fingerprint systems extras] is the md5 hex digest of finished runs
    that the determinism-repeat oracles compare: for each
    [(label, system)] the label, then every machine counter as
    ["name=value;"] in {!Taichi_engine.Counters.dump} order; then each
    extra as ["s;"]. Single-system cells pass one system labelled [""];
    the fleet labels each NIC ["nic<i>:"]. *)

val with_system :
  ?layout:System.layout ->
  ?prepare:(Taichi_hw.Machine.t -> unit) ->
  ?ctx:Run_ctx.t ->
  seed:int ->
  Policy.t ->
  (System.t -> 'a) ->
  'a
(** Create, warm up, run the body. When the context enables tracing the
    machine trace is switched on at system-assembly end and an
    {!Taichi_metrics.Export.run} snapshot is harvested into the context's
    sink after the body returns. [prepare] is forwarded to
    {!System.create}. After the body, the machine-wide audit runs: a
    violation (or a non-zero [core_state.illegal] counter) either aborts
    the run ({!Run_ctx.Abort}, the default) or is recorded in the context
    for the CLI to report ({!Run_ctx.Collect}). [ctx] defaults to
    {!Run_ctx.default}: tracing off, abort on violation. *)

val start_bg_dp :
  ?storage_target:float -> System.t -> target:float -> until:Time_ns.t -> unit
(** Bursty background traffic pinning every data-plane core at [target]
    useful utilization (networking and storage streams).
    [?storage_target] overrides the storage stream's utilization
    (default: same as [target]) — the storage per-packet cost is ~2.4x
    the networking one, so an experiment whose latency oracle must be
    attributable to scheduling (not to the generator's own burst
    queueing) can keep the storage stream lighter. *)

val start_bg_cp : System.t -> unit
(** The standard long-lived control-plane background (monitors, log
    flusher, orchestration agent), admitted as [Overload.Critical] —
    never throttled by the governor. *)

val start_cp_ecosystem : System.t -> ?tasks:int -> ?target_util:float -> unit -> unit
(** A production-scale control-plane ecosystem (default 48 tasks consuming
    ~1.8 cores), the steady load the §3.2 fleet carries on its dedicated
    CP CPUs. *)

val start_cp_churn :
  System.t -> period:Time_ns.t -> work:Time_ns.t -> until:Time_ns.t -> unit
(** Periodically spawn short synth_cp tasks — bursty control-plane demand
    that keeps vCPUs requesting data-plane cycles during data-plane
    benchmarks. Submitted as [Overload.Deferrable]; while the governor
    signals backpressure the client holds its submissions and counts them
    under [overload.client_held.churn]. *)

val avg_turnaround_ms : Task.t list -> float
(** Mean turnaround of finished tasks, in milliseconds. *)

val overhead_pct : baseline:float -> measured:float -> float
(** [(baseline - measured) / baseline * 100], i.e. positive = slower than
    baseline (for higher-is-better metrics). *)
