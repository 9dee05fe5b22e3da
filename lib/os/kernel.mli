(** The simulated SmartNIC operating system kernel.

    One kernel instance manages a set of logical CPUs — the machine's
    physical cores plus any virtual CPUs Tai Chi registers through hotplug
    — and schedules {!Task.t}s over them with a preemptive two-class
    (RT/normal) round-robin policy, CPU affinity, idle work stealing,
    spinlock contention and non-preemptible kernel sections.

    Three capabilities distinguish it from a toy scheduler and are the
    hooks the paper's mechanisms attach to:

    - {b lend / reclaim}: a CPU normally owned by a data-plane service can
      be lent to the kernel for control-plane execution and reclaimed
      later; the grant waits for the current task to leave any
      non-preemptible routine — reproducing the §3.2 latency-spike
      mechanism under naive co-scheduling.
    - {b backing}: a virtual CPU only makes progress while backed by a
      physical core. Unbacking pauses the current task mid-flight {e even
      inside non-preemptible sections} — the hybrid-virtualization property
      (§3.4) that lets Tai Chi preempt at µs scale.
    - {b hotplug}: CPUs can be registered offline and booted through
      INIT/SIPI-style IPIs, the flow the unified IPI orchestrator uses to
      expose vCPUs as native CPUs (Fig 8a). *)

open Taichi_engine
open Taichi_hw

type t
type cpu

type config = {
  timeslice : Time_ns.t;  (** round-robin slice for normal tasks *)
  context_switch_cost : Time_ns.t;  (** task switch overhead *)
  wake_latency : Time_ns.t;  (** scheduler wakeup path cost *)
  boot_delay : Time_ns.t;  (** CPU hotplug onlining time *)
  resched_vector : Lapic.vector;
  boot_vector : Lapic.vector;
}

val default_config : config

val create : ?config:config -> Machine.t -> t

val sim : t -> Sim.t
val machine : t -> Machine.t
val config : t -> config

(** {1 CPUs} *)

val add_physical_cpu : t -> ?available:bool -> id:int -> unit -> cpu
(** [add_physical_cpu t ~id ()] registers an online, backed logical CPU
    whose APIC id is [id] and which charges time to physical core [id].
    [available] (default [true]) controls whether the kernel may schedule
    tasks on it — data-plane-owned cores start unavailable. *)

val add_virtual_cpu : t -> id:int -> cpu
(** [add_virtual_cpu t ~id] registers an offline, unbacked virtual CPU; it
    must be {!boot}ed before it can run tasks. *)

val boot : t -> cpu -> ?on_online:(unit -> unit) -> src:int -> unit -> unit
(** [boot t cpu ~src] sends the INIT/SIPI boot IPI from logical CPU [src];
    the target comes online [config.boot_delay] later. *)

val cpu : t -> int -> cpu
(** Raises [Not_found] for an unknown id. *)

val cpu_kind : cpu -> [ `Physical | `Virtual ]
val is_online : cpu -> bool
val is_backed : cpu -> bool
val is_available : cpu -> bool
val current : cpu -> Task.t option
val runqueue_length : cpu -> int

val cpu_has_work : cpu -> bool
(** [cpu_has_work c] is [true] when [c] has a current task or queued
    tasks — the signal Tai Chi's vCPU scheduler uses to decide whether a
    vCPU is worth backing. *)

val set_speed_tax : cpu -> float -> unit
(** [set_speed_tax c tax] makes work on [c] take [1 + tax] longer — the
    nested-page-table tax of guest-mode execution. *)

(** {1 Backing and lending} *)

val set_backed : t -> cpu -> bool -> unit
(** Pause/resume all execution on the CPU, including non-preemptible
    sections. Idempotent. *)

val set_backing_core : t -> cpu -> int option -> unit
(** [set_backing_core t c core] sets the physical core charged for [c]'s
    execution time (vCPUs move between donor cores). *)

val requeue_if_preemptible : t -> cpu -> unit
(** If the CPU's current task is preemptible, push it back onto the run
    queue (a scheduling tick). The vCPU scheduler applies this at VM-exit
    so tasks stranded on a descheduled vCPU become stealable by idle
    CPUs. *)

val lend : t -> cpu -> unit
(** Make the CPU available for task scheduling and dispatch it. *)

val reclaim : t -> cpu -> on_granted:(unit -> unit) -> unit
(** Withdraw the CPU from task scheduling. The grant fires once the
    current task (if any) is preemptible — immediately when the CPU is
    idle, after the non-preemptible routine otherwise. Queued tasks are
    migrated to other available CPUs. *)

(** {1 Tasks} *)

val spawn : t -> Task.t -> unit
(** Make the task runnable and place it according to affinity/load. *)

val signal : t -> ?src:int -> Task.waitq -> unit
(** Semaphore V from outside the task system (e.g. a data-plane completion
    handler). *)

val credits : Task.waitq -> int

(** {1 Hooks} *)

val set_work_available_hook : t -> (int -> unit) -> unit
(** Called with a CPU id whenever work appears on an unbacked CPU — the
    vCPU scheduler's wake-up signal. *)

val set_cpu_idle_hook : t -> (int -> unit) -> unit
(** Called with a CPU id whenever a dispatch finds nothing to run — the
    vCPU scheduler's Halt-exit signal. *)

(** {1 Statistics} *)

type stats = {
  context_switches : int;
  preemptions : int;
  deferred_preemptions : int;
      (** preemption requests that had to wait for a non-preemptible
          routine *)
  steals : int;
  migrations : int;
  slice_expiries : int;
  reclaim_waits : int;  (** reclaims that could not be granted instantly *)
}

val stats : t -> stats

val max_deferred_wait : t -> Time_ns.t
(** Longest observed delay between a reclaim request and its grant — the
    magnitude of the worst §3.2-style spike. *)
