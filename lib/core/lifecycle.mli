(** The tenant-churn lifecycle manager: live admit/retire with graceful
    drain.

    Built by {!Taichi.install} only when [Config.churn] is set, on top of
    a provisioned pool — [Config.spare_vcpus] vCPUs booted unassigned
    (tenant [-1], never scheduled) and [Config.float_services] DP
    services that can float from their resting owner to a dynamic tenant
    and back.

    {b Admission} ({!admit}) is refusable: under governor backpressure or
    an exhausted pool it returns [Error] with a reason, counted under
    [churn.admit_refused.*]. {!admit_with_backoff} retries a refusal with
    deterministic capped exponential backoff
    ([min(cap, base * 2^attempt)], at most [admit_retry_max] attempts).
    A successful admission creates the tenant's weighted-queue lane at
    the active minimum virtual clock (no banked credit on re-admission),
    its overload-governor lane, and its counter/trace lanes, then binds
    pool vCPUs and floating services to it.

    {b Retirement} ({!retire}) walks [Active -> Draining -> Retired].
    Draining sheds the tenant's parked deferred admissions, refuses new
    CP spawns (via {!accepting}), and polls for quiescence every
    [drain_poll]: registered tasks finished, vCPUs unplaced/unqueued/
    workless, rings and in-flight DP packets drained. If the window
    ([drain_window]) overruns, the drain escalates exactly once —
    remaining tasks are cancelled (reaped at their next preemptible
    boundary), placed vCPUs force-evicted, queue entries flushed, ring
    backlog discarded, with a [Recovery] "drain/forced" receipt — and
    quiescence is then re-checked on the same cadence. Finalisation
    returns every resource to the pool and freezes (never deletes) the
    tenant's governor and counter lanes, so lane sums still equal the
    globals at every instant.

    The {b zero-orphan audit} is registered as the [drain-audit]
    invariant on the machine's {!Core_state}: after every experiment, a
    retired tenant must own no vCPU, queue entry, unfinished task,
    service or resident ring descriptor. *)

open Taichi_hw
open Taichi_os
open Taichi_virt
open Taichi_dataplane

type t

type refusal = Backpressure | No_vcpus | No_services

val refusal_label : refusal -> string

val create :
  config:Config.t ->
  machine:Machine.t ->
  kernel:Kernel.t ->
  sched:Vcpu_sched.t ->
  overload:Overload.t option ->
  tenants:Tenant.table ->
  spares:Vcpu.t list ->
  floats:Dp_service.t list ->
  cp_pcpus:int list ->
  dps:Dp_service.t list ->
  recovery:Recovery.t ->
  t
(** [spares] are the pooled vCPUs (already registered, tenant [-1]);
    [floats] the services the lifecycle may reassign; [dps] every service
    on the machine (the orphan audit scans all rings); [cp_pcpus] the
    reap affinity for cancelled stragglers. Registers the [drain-audit]
    invariant. *)

val admit :
  t -> ?vcpus:int -> ?services:int -> Tenant.spec -> (int, refusal) result
(** Admit a tenant drawing [vcpus] (default 1) spares and [services]
    (default 1) floating services from the pool. Returns the new dense
    tenant id, or the refusal reason. *)

val admit_with_backoff :
  t ->
  ?vcpus:int ->
  ?services:int ->
  Tenant.spec ->
  on_admitted:(int -> unit) ->
  on_abandoned:(refusal -> unit) ->
  unit
(** {!admit} with deterministic capped-exponential retry on refusal;
    abandons (counted) after [Config.admit_retry_max] attempts. *)

val retire : t -> tenant:int -> unit
(** Begin the graceful drain of a dynamically admitted tenant. Raises
    [Invalid_argument] for boot-time tenants. *)

val accepting : t -> tenant:int -> bool
(** Whether the tenant may receive new CP work ([Admitted]/[Active]). *)

val note_task : t -> tenant:int -> Task.t -> unit
(** Register a spawned CP task with its owning tenant so the drain can
    wait for (or cancel) it. No-op for boot-time tenants. *)

val on_retired : t -> (int -> unit) -> unit
(** Run a callback (in registration order) after each finalised
    retirement — the experiment driver's hook for sequencing churn. *)

val pool_size : t -> int
val free_services : t -> int
