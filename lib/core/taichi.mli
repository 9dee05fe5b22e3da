(** Tai Chi: the assembled hybrid-virtualization scheduling framework.

    [install] wires every component of the paper's design onto an existing
    simulated SmartNIC — machine, kernel, accelerator pipeline and
    data-plane services — exactly as the production kernel module loads
    onto a running system:

    + a per-core {!State_table} shared with the accelerator;
    + the {!Sw_probe} adaptive yield thresholds, attached to each
      data-plane service's poll loop;
    + the {!Vcpu_sched} softirq-based vCPU scheduler;
    + the {!Ipi_orchestrator}, which also hotplugs the configured number
      of vCPUs into the kernel as native CPUs;
    + the {!Hw_probe} in the accelerator pipeline.

    Control-plane tasks need zero modification: bind them (CPU affinity)
    to {!cp_cpu_ids}, which spans the dedicated CP pCPUs plus all
    registered vCPUs. *)

open Taichi_hw
open Taichi_os
open Taichi_virt
open Taichi_accel
open Taichi_dataplane

type t

val install :
  ?config:Config.t ->
  ?tenants:Tenant.table ->
  machine:Machine.t ->
  kernel:Kernel.t ->
  pipeline:Pipeline.t ->
  dps:Dp_service.t list ->
  cp_pcpus:int list ->
  unit ->
  t
(** Install Tai Chi. vCPU kernel ids start right after the machine's
    physical cores. vCPUs come online after the kernel boot delay of
    simulated time has run.

    [?tenants] shares the caller's mutable tenant table across every
    layer (scheduler lanes, governor lanes, lifecycle) — the platform
    passes its single per-system instance; the default derives a fresh
    static table from the config. With [config.churn],
    [config.spare_vcpus] extra vCPUs are registered unassigned
    (tenant [-1]) and the last [config.float_services] services become
    the lifecycle's floating pool. *)

val config : t -> Config.t
val machine : t -> Machine.t
val kernel : t -> Kernel.t
val scheduler : t -> Vcpu_sched.t
val orchestrator : t -> Ipi_orchestrator.t
val hw_probe : t -> Hw_probe.t

val softirq : t -> Softirq.t
(** The softirq layer carrying the dedicated context-switch vector. *)

val state_table : t -> State_table.t

val recovery : t -> Recovery.t
(** The recovery tracker shared by the watchdog, the orchestrator retries
    and the mirror divergence detector; also the degraded-mode switch.
    Inert (counters only) unless [config.resilience] is set. *)

val overload : t -> Overload.t option
(** The overload governor, present when [config.overload] is set. Route
    CP admissions through [Overload.admit] and consult
    [Overload.backpressure] in workload clients. *)

val lifecycle : t -> Lifecycle.t option
(** The tenant-churn lifecycle manager, present when [config.churn] is
    set. *)

val vcpus : t -> Vcpu.t list
(** Every registered vCPU, including any pooled spares (tenant [-1]). *)

val tenants : t -> Tenant.table
(** The system's tenant table — the one shared instance when the caller
    passed [?tenants] (it grows under churn), else the static table
    derived from the config. Under an explicit multi-tenant table
    [install] deals vCPUs round-robin across tenants ([vid mod count])
    and turns on per-tenant counter mirroring in every registered DP
    service. *)

val cp_cpu_ids : t -> int list
(** Kernel CPU ids control-plane tasks should be affine to: the dedicated
    CP pCPUs plus every currently assigned vCPU (pooled spares are
    excluded — their kcpus run nothing until admitted). *)

val ready : t -> bool
(** All vCPUs finished hotplug. *)

val total_vm_exits : t -> int

val pp_summary : Format.formatter -> t -> unit
(** One-paragraph operational summary (placements, exits, probe activity,
    IPI routing) for experiment logs. *)
