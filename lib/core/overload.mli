(** The overload governor: a live brownout ladder for CP/DP co-scheduling.

    The paper's motivating failure is load, not faults: at 4x VM density
    CP execution time degrades ~8x and VM startup blows through its SLO
    while the data plane's tail latency collapses. PR 3's recovery
    machinery only reacts to fault events; this module closes the loop on
    *load*. Every [overload_period] it samples three signals:

    + data-plane core occupancy — the delta of [Core_state] "dp_running"
      dwell across the watched DP cores over the sampling period;
    + vCPU-host runqueue depth — summed [Kernel.runqueue_length] over the
      watched kernel CPUs (the backlog of CP work behind the vCPUs);
    + sliding-window DP p99 latency — a {!Taichi_metrics.Quantile} sketch
      fed per-packet by [Dp_service.set_latency_sink].

    When at least two signals sit above their high watermarks the ladder
    escalates one rung; when all of them stay below their low watermarks
    for [overload_quiet] it relaxes one rung. Both directions require
    [overload_min_dwell] at the current rung first — hysteresis against
    flapping. The rungs:

    - {b Normal}: everything admitted, placements ungated.
    - {b Throttle}: [Standard]/[Deferrable] CP admissions and vCPU
      placements (the wakeup-IPI path) pass through per-class token
      buckets refilled at [overload_tokens_per_period].
    - {b Defer}: [Deferrable] admissions are parked on a deferred queue;
      {!backpressure} turns on for workload clients.
    - {b Shed}: [Deferrable] admissions are rejected outright (counted);
      [Standard] is deferred. Only the lowest class is ever shed.
    - {b Static_partition}: additionally pins PR 3's degraded fallback via
      [Recovery.force_engage] — load-driven and fault-driven degradation
      converge on the same static-partitioning mechanism. Relaxing off
      this rung releases the hold (with multiple lanes, only when the
      last lane leaves it).

    {b Tenant lanes.} The governor runs one independent ladder ("lane")
    per tenant in the config's tenant table. The watch sets, latency
    sketch, token buckets and deferred queue are all per-lane, so one
    tenant's CP storm or DP burst escalates only that tenant's ladder —
    the noisy neighbour is throttled while its victims stay at [Normal].
    Under the implicit single tenant there is exactly one lane whose
    counters and transition events keep the original names and format,
    so governed single-tenant runs are byte-identical to earlier
    revisions. Explicit multi-tenant lanes mirror every counter into
    [tenant.<id>.overload.*] alongside the global name and prefix
    transition payloads with [tenant=<id>].

    Transitions emit [Trace.Cat.overload] events whose payload
    ([seq=N from=a to=b held=H min=M]) lets [trace_lint] re-verify each
    lane's ladder offline, plus [overload.*] counters. Like
    [Config.resilience], the governor is an explicit opt-in
    ([Config.overload]); nothing is scheduled otherwise, keeping default
    runs bit-identical. *)

open Taichi_engine
open Taichi_hw
open Taichi_os

type t

type level = Normal | Throttle | Defer | Shed | Static_partition

(** CP admission priority classes, highest first — an alias of
    {!Tenant.cls} so tenant contracts and admission classes are the same
    type. [Critical] is never throttled (monitors, health checks);
    [Standard] is ordinary tenant work (VM lifecycle); [Deferrable] is
    batch/housekeeping — the only class the ladder will ever shed. *)
type cls = Tenant.cls = Critical | Standard | Deferrable

val level_label : level -> string

val rank : level -> int
(** Ladder depth, [Normal] = 0 … [Static_partition] = 4. *)

val create :
  ?tenants:Tenant.table -> Config.t -> Machine.t -> Kernel.t -> Recovery.t -> t
(** One lane per tenant; a single untagged lane when the table is
    implicit. Pass [?tenants] to share the platform's one mutable table
    (required under churn so {!admit_lane} ids line up with the
    registry); the default derives a fresh static table from the
    config. *)

val admit_lane : t -> tenant:int -> unit
(** Create the tagged lane for a dynamically admitted tenant. The id
    must be the next dense slot. *)

val quiesce_lane : t -> tenant:int -> unit
(** Drain-start settlement: shed (with receipts) every admission parked
    on the lane's deferred queue — a departing tenant's parked CP work
    must not run during or after its drain. *)

val retire_lane : t -> tenant:int -> unit
(** Freeze the lane at its final rung: no further samples, transitions,
    admissions or counter increments. If that rung was
    [Static_partition], its contribution to the degraded hold is
    released. Idempotent; the lane and its totals are never deleted. *)

val move_dp_watch : t -> core:int -> from_tenant:int -> to_tenant:int -> unit
(** Re-home a floating DP core's occupancy signal when the churn
    lifecycle reassigns the service, re-baselining the dwell delta. *)

val watch_dp : t -> ?tenant:int -> core:int -> unit -> unit
(** Add a data-plane core to [tenant]'s occupancy sample set
    (default lane 0). *)

val watch_kcpu : t -> ?tenant:int -> int -> unit
(** Add a kernel CPU (vCPU host) to [tenant]'s runqueue-depth sample
    set. *)

val observe_latency : t -> ?tenant:int -> Time_ns.t -> unit
(** Per-packet DP latency feed (wired to [Dp_service.set_latency_sink]),
    routed to [tenant]'s sketch. *)

val start : t -> unit
(** Begin the sampling loop. Call once, after the watch sets are final. *)

val level : t -> level
(** The deepest rung across all lanes — the machine-wide view legacy
    consumers key off. *)

val level_of : t -> tenant:int -> level
(** One lane's rung. *)

val backpressure : t -> bool
(** True when any lane sits at [Defer] or above — workload clients should
    stop submitting deferrable work. *)

val admit :
  t -> ?tenant:int -> cls:cls -> (unit -> unit) -> [ `Admitted | `Deferred | `Shed ]
(** [admit t ~tenant ~cls run] routes one CP admission through [tenant]'s
    ladder: runs [run] now ([`Admitted]), parks it on the lane's deferred
    queue until that ladder relaxes ([`Deferred]), or drops it ([`Shed],
    counted in [overload.shed.<cls>]). *)

val place_allowed : t -> int -> bool
(** [place_allowed t tenant] is the vCPU placement gate (consumed by
    [Vcpu_sched.set_place_gate]): unlimited at [Normal], token-bucket-
    limited at deeper rungs (each rung halves the refill rate). Consumes
    a token from [tenant]'s lane when it allows. *)

val on_transition : t -> (level -> level -> unit) -> unit
(** [on_transition t f] runs [f old_level new_level] after every lane's
    transition (in registration order, after the governor's own side
    effects — forced degraded engage/release, deferred-queue drain). *)

val transitions : t -> int
val escalations : t -> int
val relaxes : t -> int

val shed : t -> cls -> int
(** Admissions dropped for [cls] so far, summed over lanes. *)

val deferred_pending : t -> int
(** Admissions currently parked on the deferred queues, summed over
    lanes. *)

val deferred_pending_of : t -> tenant:int -> int
