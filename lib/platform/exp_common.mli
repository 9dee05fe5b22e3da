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

val versus_taichi :
  'p list ->
  key:('p -> string) ->
  label:('p -> string) ->
  (Exp_desc.cell * ('p * Policy.t)) list
(** The grid crossing each point with the static baseline and default
    Tai Chi: cells ["<key p>-base"] and ["<key p>-taichi"], labelled
    ["<label p>, <policy name>"]. *)

val guardrail : Time_ns.t
(** The DP p99 guardrail storm cells are judged against: the bound the
    governor escalates on ([Config.overload_p99_bound]). *)

val p99_us : Histogram.t -> float
(** The 99th percentile in microseconds, 0 for an empty histogram. *)

val lifecycle_of : System.t -> Taichi_core.Lifecycle.t
(** The system's churn lifecycle. Raises [Failure] when the policy built
    none. *)

val tenant_dp_cores : System.t -> tenant:int -> int list
(** The cores of the data-plane services [tenant] owns now, in service
    order. *)

val start_dp_load :
  System.t ->
  rng:Rng.t ->
  cores:int list ->
  net:float ->
  storage:float ->
  until:Time_ns.t ->
  unit
(** Bursty background traffic until [until]: 1400 B [Net_rx] packets at
    useful utilization [net] on the networking cores among [cores], and
    4 KiB [Storage_read] packets at [storage] on the storage ones. Each
    kind keeps the order of [cores]. *)

val start_bg_dp :
  ?storage_target:float -> System.t -> target:float -> until:Time_ns.t -> unit
(** {!start_dp_load} on every data-plane core at [target], with the
    ["bg-dp"] stream. [?storage_target] overrides the storage stream's
    utilization (default: same as [target]) — the storage per-packet
    cost is ~2.4x the networking one, so an experiment whose latency
    oracle must be attributable to scheduling (not to the generator's
    own burst queueing) can keep the storage stream lighter. *)

val vm_params :
  System.t ->
  rng:Rng.t ->
  density:float ->
  Taichi_controlplane.Vm_lifecycle.params
(** The VM-startup workflow at instance [density], drawn from [rng], with
    the device round trip set to the system's DP-CP round trip. *)

val vm_storm :
  ?tenant:int ->
  System.t ->
  rng:Rng.t ->
  density:float ->
  locks:string ->
  name:string ->
  recorder:Taichi_metrics.Recorder.t ->
  Task.t list
(** The §3.1 VM-startup storm, not yet spawned: [10 x density] startup
    tasks (at least one) named ["<name>-<i>"], sharing eight driver
    locks named ["<locks>-<i>"], owned by [tenant] (default 0), each
    recording its startup time in [recorder]. *)

val spawn_staggered :
  ?tenant:int -> System.t -> spread:Time_ns.t -> Task.t list -> unit
(** Spawn the tasks as [Standard]-class work for [tenant], evenly spaced
    across [spread], so a late wave meets a ladder the early one already
    escalated. *)

val synth_task :
  System.t ->
  stream:string ->
  tenant:int ->
  work:Time_ns.t ->
  name:string ->
  Task.t
(** A lock-free three-phase synth_cp task of [work] for [tenant], drawn
    from the RNG stream ["<stream><name>"]. *)

val spawn_synth :
  System.t ->
  stream:string ->
  tenant:int ->
  count:int ->
  work:Time_ns.t ->
  tag:string ->
  unit
(** Spawn [count] {!synth_task}s for [tenant], named
    ["<tag>-<tenant>-<i>"]. *)

val dp_burst : System.t -> Rng.t -> int -> unit
(** [dp_burst sys rng n] submits [n] background 1400 B [Net_rx] packets,
    each on a data-plane core drawn from [rng]. *)

val wire_injector :
  System.t -> Taichi_faults.Injector.t -> prefix:string -> unit
(** Connect a fault injector's stack-side streams to a Tai Chi system:
    the state table, the hardware probe's suppressor and misfire, CP
    hangs (tasks ["<prefix>-hang-<n>"] holding lock ["<prefix>-dev"]
    non-preemptibly) and DP bursts drawn from ["<prefix>-burst"]. *)

val results_except : string -> (Exp_desc.cell * 'r) list -> 'r list
(** The results of every cell but the one with the given key (a
    determinism-repeat cell, say), in cell order. *)

val check_repeat :
  experiment:string ->
  base:string ->
  repeat:string ->
  ('r -> string) ->
  (Exp_desc.cell * 'r) list ->
  unit
(** The determinism oracle: when both the cell [base] and its repeat cell
    [repeat] ran, their fingerprints must match. Raises [Failure], naming
    [experiment], when they differ. *)

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
