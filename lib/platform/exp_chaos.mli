(** The [chaos] experiment: a seeded fault matrix crossed with resilient
    Tai Chi policies.

    For every fault profile ({!Taichi_faults.Injector.flaky},
    {!Taichi_faults.Injector.storm}) and each policy under test, the
    cell installs a deterministic injector before the system boots,
    arms it for the measurement window, drives mixed data-plane and
    control-plane load through it, then checks the recovery oracles:

    - the machine-wide Core_state audit (via [Exp_common.with_system]);
    - no vCPU still hung past the watchdog bound at the end of the grace
      window ([Vcpu_sched.watchdog_stuck] must be zero);
    - when the storm profile is in the selected matrix, degraded mode
      must have both engaged and re-armed in at least one scenario
      (checked in the descriptor's summarize step over whatever cells
      ran).

    The report prints a per-fault-class injected / detected / recovered
    table and the recovery-latency histogram, all read back from the
    machine counter registry and the {!Taichi_core.Recovery} tracker —
    the same data the trace export carries. *)

val chaos : Exp_desc.t
(** One cell per (fault profile x resilient policy) matrix point. *)

val profile_names : string list
(** The fault profiles the matrix crosses, by name: the values
    [--chaos-profile] accepts. *)

val profile_filter : string -> Exp_desc.cell -> bool
(** Cell filter keeping only the named profile's matrix row (the CLI's
    [--chaos-profile]). *)
