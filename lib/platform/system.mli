(** Full simulated SmartNIC systems under a scheduling policy.

    [create] assembles the Table 4 environment — a 12-core SmartNIC with
    the accelerator pipeline, networking and storage data-plane services,
    a kernel, and the policy's scheduling machinery — and wires every
    hook. Experiments then attach workloads and control-plane tasks and
    advance simulated time. *)

open Taichi_engine
open Taichi_hw
open Taichi_os
open Taichi_accel
open Taichi_core
open Taichi_dataplane
open Taichi_workloads

type layout = {
  n_net : int;  (** networking data-plane cores *)
  n_storage : int;  (** storage data-plane cores *)
  n_cp : int;  (** dedicated control-plane cores *)
}

val default_layout : layout
(** 5 networking + 3 storage data-plane cores, 4 control-plane cores: the
    paper's 8/4 static split on a 12-CPU SmartNIC (Table 4, §6.1). *)

type t

val create :
  ?seed:int ->
  ?layout:layout ->
  ?prepare:(Machine.t -> unit) ->
  ?ctx:Run_ctx.t ->
  Policy.t ->
  t
(** Build the system. For Tai Chi policies, vCPUs still need their hotplug
    boot: call {!warmup}. [prepare] runs right after the machine is
    assembled and before the kernel, services or scheduler exist — the
    chaos harness uses it to install a fault injector that must already
    cover the boot IPIs. [ctx] (default {!Run_ctx.default}) carries the
    run configuration: when it enables tracing, the machine trace is
    switched on once assembly completes, just before [create] returns. *)

val warmup : t -> unit
(** Advance simulated time until the policy's infrastructure is ready
    (vCPU hotplug etc.) and set the measurement epoch. *)

val sim : t -> Sim.t
val machine : t -> Machine.t
val kernel : t -> Kernel.t
val pipeline : t -> Pipeline.t
val policy : t -> Policy.t
val rng : t -> Rng.t
val client : t -> Client.t
val taichi : t -> Taichi.t option

val net_cores : t -> int list
val storage_cores : t -> int list
val dp_cores : t -> int list
val cp_cores : t -> int list  (** dedicated CP physical CPU ids *)

val cp_affinity : t -> int list
(** Kernel CPU ids control-plane tasks bind to under this policy. *)

val net_services : t -> Dp_service.t list
val services : t -> Dp_service.t list

val overload : t -> Overload.t option
(** The policy's overload governor, when armed ([Config.overload] under a
    Tai Chi policy). *)

val cp_backpressure : t -> bool
(** The governor's backpressure signal: true while the brownout ladder is
    at [Defer] or deeper. Workload clients should hold deferrable
    submissions. Always false without a governor. *)

val tenants : t -> Tenant.table
(** The system's one shared tenant table — built once in {!create} and
    threaded through every layer, so dynamically admitted tenants are
    visible here (and in the export) the instant the churn lifecycle
    registers them. *)

val lifecycle : t -> Lifecycle.t option
(** The tenant-churn lifecycle manager, present under a Tai Chi policy
    with [Config.churn] set. *)

val spawn_cp : ?cls:Overload.cls -> ?tenant:int -> t -> Task.t -> unit
(** Spawn a control-plane task owned by [tenant] (default 0, the implicit
    tenant): the task is stamped with the tenant id, and a task without
    an explicit affinity is bound to the tenant's CP CPU set — the shared
    dedicated CP pCPUs plus only that tenant's vCPUs under an explicit
    multi-tenant Tai Chi table, {!cp_affinity} otherwise; an existing pin
    is respected. With an armed overload governor the admission is routed
    through [Overload.admit] on the owning tenant's lane under [cls]
    (default [Standard]) — it may be deferred until that ladder relaxes,
    or shed entirely for [Deferrable] work at the deepest rungs. Under
    churn, a [Draining] or [Retired] tenant refuses the spawn outright
    (counted under [churn.spawn_refused], globally and on the tenant's
    lane), and successfully spawned tasks are registered with the
    lifecycle so a later drain can wait for — or cancel — them. *)

val advance : t -> Time_ns.t -> unit
(** Run the simulation for a further duration. *)

val run_until_tasks_done : t -> Task.t list -> limit:Time_ns.t -> bool
(** Advance until every task finished (true) or the limit elapsed. *)

val epoch : t -> Time_ns.t
(** Start of the measurement window (set by {!warmup}). *)

val elapsed : t -> Time_ns.t
(** Simulated time since the epoch. *)

val audit : t -> string list
(** Machine-wide coherence check: runs every invariant registered on the
    authoritative {!Taichi_hw.Core_state} machine (kernel backing ⇔
    [Vcpu_running], service yielded ⇔ not data-plane owned, accelerator
    mirror lag bounded by the IPI latency) plus the illegal-transition
    count. Empty means coherent; [Exp_common.with_system] fails the run on
    any violation. *)

val dp_latency_hist : t -> Histogram.t
(** Merged per-packet latency across all data-plane services. *)

val dp_latency_hist_of : t -> tenant:int -> Histogram.t
(** Merged per-packet latency across one tenant's data-plane services —
    the victim/aggressor split the isolation oracles measure. *)

val dp_work_utilization : t -> float
(** Useful data-plane processing time over (elapsed x data-plane cores). *)

val dpcp_roundtrip : t -> Time_ns.t
