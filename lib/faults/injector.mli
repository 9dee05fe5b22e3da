(** Deterministic fault-plan injector for the Tai Chi stack.

    An injector owns a set of named RNG streams (derived with {!Rng.split}
    from the generator it is given, so adding a fault class never perturbs
    the draws of another) and attaches to the existing component
    boundaries:

    - the {!Machine} fabric fault hook (IPI drop / delay, boot-IPI drop),
    - per-LAPIC loss filters (vector loss at the controller),
    - {!State_table} freeze / corrupt (stale or stuck P/V mirror records),
    - the hardware-probe suppressor plus periodic misfires,
    - periodic CP hang and DP overload-burst events delivered through
      harness-provided callbacks (the injector never depends on
      [taichi_core] or the workloads — the chaos harness wires those).

    Faults in the fabric are live from {!create} (so vCPU hotplug boot
    IPIs can be lost during warm-up); the periodic streams and LAPIC
    filters start at {!arm} and everything stops — frozen mirror records
    thawed, filters removed — when the simulated clock passes the [until]
    horizon given to {!arm}.

    Every injected fault increments a [fault.<class>.<kind>] counter in
    the machine registry and emits a [Trace.Cat.fault] record, which is
    what the chaos report and the recovery oracles read back. *)

open Taichi_engine
open Taichi_hw
open Taichi_accel

(** A fault plan: rates, periods and magnitudes per fault class. A period
    of [0] disables that periodic stream; a probability of [0.] disables
    that per-event draw. *)
type profile = {
  pname : string;
  ipi_drop_p : float;  (** P(drop) per routed non-boot IPI *)
  ipi_delay_p : float;  (** P(extra delay) per routed non-boot IPI *)
  ipi_delay_max : Time_ns.t;  (** uniform extra delay in [1, max] *)
  boot_drop_p : float;  (** P(drop) per boot-vector IPI *)
  boot_drop_max : int;
      (** total boot-drop budget — bounds hotplug delay so a retrying
          boot always converges *)
  lapic_loss_p : float;  (** P(loss) per injected non-boot vector *)
  mirror_period : Time_ns.t;  (** state-table stall/corrupt cadence *)
  mirror_stall : Time_ns.t;  (** how long a frozen record stays frozen *)
  mirror_corrupt_p : float;  (** P(flip record) vs. plain stall *)
  probe_suppress_p : float;  (** P(suppress) per hw-probe trigger *)
  probe_misfire_period : Time_ns.t;  (** spurious probe-IRQ cadence *)
  cp_hang_period : Time_ns.t;  (** CP lock-holder hang cadence *)
  cp_hang_hold : Time_ns.t;  (** non-preemptible hold per hang *)
  dp_burst_period : Time_ns.t;  (** DP overload burst cadence *)
  dp_burst_size : int;  (** packets per burst *)
  churn_depart_period : Time_ns.t;
      (** tenant-departure cadence — the harness retires a live dynamic
          tenant mid-CP-storm *)
  churn_arrive_period : Time_ns.t;
      (** tenant-arrival cadence — the harness attempts an admission,
          aimed at whatever governor rung is active *)
  churn_overrun_period : Time_ns.t;
      (** drain-overrun cadence — the harness pins a drain open past its
          window, forcing the watchdog escalation *)
}

val none : profile
(** All classes disabled — an armed [none] injector is a no-op. *)

val flaky : profile
(** Moderate background fault rate: occasional IPI loss and delay, rare
    mirror stalls, sporadic CP hangs. Recovery should absorb everything
    without entering degraded mode. *)

val storm : profile
(** Aggressive correlated faults: heavy IPI loss, frequent mirror
    corruption, long non-preemptible CP hangs and DP overload. Expected to
    push the recovery-event rate over the degraded-mode threshold. *)

val churn : profile
(** The {!flaky} background rates with the three tenant-lifecycle fault
    classes armed: periodic departures (timed to land inside CP storms),
    arrivals (aimed at active governor rungs) and drain-window overruns.
    Requires a churn-enabled config and the harness callbacks below;
    without them the streams fire but do nothing. *)

type t

val create :
  ?nic:int -> rng:Rng.t -> machine:Machine.t -> boot_vector:int -> profile -> t
(** [create ~rng ~machine ~boot_vector profile] derives the per-class
    streams from [rng] and installs the fabric fault hook. [boot_vector]
    identifies hotplug boot IPIs, which draw from their own stream (and
    count as [fault.boot.dropped]) so boot-timeout injection is tunable
    independently of steady-state IPI loss. [?nic] prefixes every stream
    name with ["nic<i>."] so a fleet can run the same plan on every NIC
    with decorrelated draws; omitting it keeps the original single-NIC
    stream names (and therefore the exact PR 3 fault sequences). *)

val profile : t -> profile

val attach_table : t -> State_table.t -> unit
(** Gives the injector the accelerator mirror to stall/corrupt. Without a
    table the mirror stream is a no-op. *)

val set_probe_misfire : t -> (core:int -> unit) -> unit
(** Callback fired by the misfire stream; the harness points it at
    [Hw_probe.misfire]. *)

val set_cp_hang : t -> (hold:Time_ns.t -> unit) -> unit
(** Callback fired by the CP-hang stream; the harness spawns a lock-taking
    non-preemptible CP task holding for [hold]. *)

val set_dp_burst : t -> (size:int -> unit) -> unit
(** Callback fired by the DP-burst stream; the harness submits [size]
    background packets. *)

val set_churn_depart : t -> (unit -> unit) -> unit
(** Callback fired by the churn-departure stream; the harness spins up a
    short CP storm on a live dynamic tenant and retires it mid-storm.
    Each firing counts [fault.churn.departs]. *)

val set_churn_arrive : t -> (unit -> unit) -> unit
(** Callback fired by the churn-arrival stream; the harness attempts an
    admission ({!Taichi_core.Lifecycle.admit_with_backoff}), which lands
    on whatever governor rung is active. Counts [fault.churn.arrivals]. *)

val set_churn_overrun : t -> (unit -> unit) -> unit
(** Callback fired by the drain-overrun stream; the harness pins a
    tenant's drain open past [Config.drain_window] (e.g. with a
    long-held non-preemptible task) so the forced escalation path runs.
    Counts [fault.churn.overruns]. *)

val probe_suppress : t -> core:int -> bool
(** Suppressor predicate for [Hw_probe.set_suppressor]: draws from the
    probe stream and counts [fault.probe.suppressed] when it bites.
    Always [false] once the injector is stopped. *)

val arm : t -> until:Time_ns.t -> unit
(** [arm t ~until] installs the LAPIC loss filters and starts the periodic
    streams (mirror, misfire, CP hang, DP burst). At absolute time [until]
    all injection stops: filters removed, frozen records thawed, the
    fabric hook inert. *)

val active : t -> bool
(** [true] from {!create} until the [until] horizon passes. *)
