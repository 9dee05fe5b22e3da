(** The SmartNIC machine: physical cores, the IPI fabric and shared models.

    The machine owns the physical resources every other layer builds on. It
    routes inter-processor interrupts between LAPICs — with an optional
    interceptor hook, which is exactly where Tai Chi's unified IPI
    orchestrator plugs in (§4.2 intercepts [x2apic_send_IPI]). *)

open Taichi_engine

type t

type config = {
  physical_cores : int;  (** general-purpose SmartNIC cores, e.g. 12 *)
  ipi_latency : Time_ns.t;  (** fabric delivery latency of one IPI *)
}

val default_config : config
(** 12 cores (Table 4), 500 ns IPI delivery. *)

val create : ?config:config -> ?trace:Trace.t -> Sim.t -> t
(** [create ?config ?trace sim] assembles a machine. When [trace] is
    omitted, a disabled 2M-record trace is created — callers flip it on via
    [Trace.set_enabled (Machine.trace m) true] to start collecting events. *)

val sim : t -> Sim.t
val config : t -> config
val physical_cores : t -> int
val accounting : t -> Accounting.t
val cache : t -> Cache_model.t

val trace : t -> Trace.t
(** The machine-wide event trace every subsystem emits into (stable
    categories documented in DESIGN.md §Observability). *)

val counters : t -> Counters.t
(** The machine-wide named-counter registry. *)

val core_state : t -> Core_state.t
(** The authoritative per-core occupancy state machine. All occupancy
    changes anywhere in the stack go through
    [Core_state.transition (Machine.core_state m)]; the machine's built-in
    subscriber derives the [core.state] trace events (deduplicated per
    occupancy bucket) and the [core_state.transitions] /
    [core_state.illegal] counters from it. *)

val register_lapic : t -> Lapic.t -> unit
(** [register_lapic t lapic] makes the LAPIC addressable by its APIC id.
    Raises [Invalid_argument] on a duplicate id. *)

val lapic : t -> apic_id:int -> Lapic.t
(** Raises [Not_found] for an unregistered id. *)

type route = Deliver | Consumed
(** Interceptor outcome: [Deliver] lets the fabric deliver normally;
    [Consumed] means the interceptor handled routing itself. *)

val set_ipi_interceptor :
  t -> (src:int -> dst:int -> vector:Lapic.vector -> route) option -> unit
(** Installs (or removes) the hook consulted on the send side of every IPI
    before fabric delivery. *)

type fault = Pass | Drop | Delay of Time_ns.t
(** Fabric fault verdict for one in-flight IPI: [Pass] delivers normally,
    [Drop] loses the message in the interconnect (counted as
    [fault.ipi.dropped]), [Delay d] adds [d] on top of the configured
    fabric latency (counted as [fault.ipi.delayed]). *)

val set_fault_hook :
  t -> (dst:int -> vector:Lapic.vector -> fault) option -> unit
(** Installs (or removes) the fault-injection hook consulted on the
    delivery side of every routed IPI, after the interceptor. [None]
    (the default) leaves the fabric fault-free and adds no per-IPI cost
    beyond one branch. *)

val fault_injection_active : t -> bool
(** Whether a fabric fault hook is currently installed. Recovery timers
    that would otherwise perturb deterministic happy-path runs key off
    this. *)

val iter_lapics : t -> (Lapic.t -> unit) -> unit
(** [iter_lapics t f] applies [f] to every registered LAPIC (arbitrary
    order). *)

val send_ipi : t -> src:int -> dst:int -> vector:Lapic.vector -> unit
(** [send_ipi t ~src ~dst ~vector] consults the interceptor, then delivers
    to the destination LAPIC after the configured fabric latency. An IPI to
    an unregistered destination is dropped and counted. *)

val ipis_sent : t -> int
val ipis_dropped : t -> int

val ipis_fault_dropped : t -> int
(** IPIs lost to the injected-fault hook (distinct from {!ipis_dropped},
    which counts sends to unregistered destinations). *)

val ipis_fault_delayed : t -> int
