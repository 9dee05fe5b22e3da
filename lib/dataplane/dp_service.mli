(** A poll-mode data-plane service (DPDK/SPDK style) pinned to one core.

    The service owns its physical core and runs the canonical run-to-
    completion loop of Fig 9: poll the RX ring in bursts, process what
    arrived, and count consecutive empty polls. When the empty-poll count
    crosses the (externally owned, adaptive) threshold it reports idleness
    — the [notify_idle_DP_CPU_cycles] call a production service adds in
    under ten lines. What happens next is up to the attached policy hooks:
    the baseline keeps polling, Tai Chi lends the core to a vCPU, the
    naive co-scheduler lends it to the kernel directly.

    Empty polling is virtualized: instead of simulating every 100 ns poll
    iteration, one cancellable event is scheduled at the exact time the
    threshold would be crossed. This is behaviour-preserving because the
    poll loop is deterministic between ring arrivals. *)

open Taichi_engine
open Taichi_hw
open Taichi_accel
open Taichi_metrics

type config = {
  core : int;  (** physical core the service is pinned to *)
  tenant : int;  (** owning tenant id; 0 = the implicit tenant *)
  burst : int;  (** max descriptors per poll, DPDK default 32 *)
  poll_iter : Time_ns.t;  (** cost of one empty poll iteration *)
  per_packet : Packet.t -> Time_ns.t;  (** software processing cost *)
  spike_threshold : Time_ns.t;
      (** packet latency above this counts as a tail-latency spike *)
}

val default_config :
  ?tenant:int -> core:int -> per_packet:(Packet.t -> Time_ns.t) -> unit -> config
(** burst 32, poll_iter 100 ns, spike threshold 100 µs, tenant 0. *)

(** The service's view of its core, derived from the authoritative
    {!Taichi_hw.Core_state} machine rather than stored here: [Processing],
    [Counting] and [Idle_parked] map 1:1 onto [Dp_running], [Dp_counting]
    and [Dp_parked]; every other core state (including [Offline] before
    {!start}) reads as [Yielded]. *)
type state =
  | Processing  (** executing a burst *)
  | Counting  (** empty-polling towards the idleness threshold *)
  | Idle_parked  (** threshold crossed, core not taken by anyone *)
  | Yielded  (** core lent out (to a vCPU or to the kernel) *)

type t

(** Policy attachment points; all default to no-ops / constants. *)
type hooks = {
  mutable idle_threshold : unit -> int;
      (** consecutive empty polls before idleness is declared (adaptive N
          of §4.3); default 200 *)
  mutable idle_detected : t -> unit;
      (** threshold crossed; the policy may take the core *)
  mutable work_arrived_while_yielded : t -> unit;
      (** a descriptor landed in the ring while the core was lent out *)
  mutable on_packets_done : Packet.t array -> int -> unit;
      (** processing of a burst finished (workload completion path).
          Called with the service's burst scratch array and the number of
          valid entries; the descriptors are freed back to the pipeline
          arena when the hook returns, so handlers must copy any field
          they keep *)
}

val create : Machine.t -> Pipeline.t -> config -> t
(** Creates the service and attaches its RX ring to the pipeline for
    [config.core]; the caller routes that core's deliveries to
    {!on_ring_activity}. The service is stopped until {!start}. *)

val start : t -> unit
(** Begin the poll loop (in [Counting] state). *)

val hooks : t -> hooks
val state : t -> state
val core : t -> int
val config : t -> config
val ring : t -> Ring.t

val set_speed_tax : t -> float -> unit
(** Guest-mode execution tax for the Tai Chi-vDP configuration: packet
    processing takes [1 + tax] longer. *)

val set_latency_sink : t -> (Time_ns.t -> unit) option -> unit
(** [set_latency_sink t (Some f)] calls [f lat] for every completed packet
    alongside the {!latency} recorder — the overload governor's live
    latency feed. [None] (the default) detaches it. *)

val tenant : t -> int
(** Current owning tenant id (the ring's owner). *)

val set_owner : t -> int -> unit
(** Reassign the service (and its ring) to a tenant. Used by the churn
    lifecycle to float a pool service to a newly admitted tenant and
    hand it back on retire; counters and the latency sink attribute to
    the owner at the instant they fire. *)

val resting_owner : t -> int
(** The boot-time owner from the service's config — where {!set_owner}
    returns the service when its dynamic tenant retires. *)

val set_tag_tenant : t -> bool -> unit
(** Mirror every dp.* counter this service increments into the
    [tenant.<id>.dp.*] namespace. Off by default; the platform enables it
    only under an explicit multi-tenant table, preserving single-tenant
    counter sets byte-for-byte. *)

val pending_work : t -> bool
(** Ring descriptors waiting or in flight in the accelerator. *)

val discard_backlog : t -> int
(** Force-drain escalation: throw away every descriptor resident in the
    ring (no latency observation) and return how many were discarded.
    Packets already popped for processing complete normally. *)

val try_yield : t -> bool
(** Policy-side: take the core. Succeeds only in [Idle_parked] or
    [Counting] state with no pending work; the service stops polling and
    enters [Yielded]. *)

val resume : t -> switch_cost:Time_ns.t -> unit
(** Policy-side: give the core back. After [switch_cost] the service polls
    again: processes pending work or resumes counting. No-op unless
    [Yielded]. *)

val latency : t -> Recorder.t
(** Per-packet latency (submit to processing completion). *)

val packets_processed : t -> int

val bursts : t -> int
(** Poll-loop bursts that found at least one packet. *)

val yields : t -> int
val resumes : t -> int

val spikes : t -> int
(** Packets whose latency exceeded [config.spike_threshold]. *)

val busy_fraction : t -> elapsed:Time_ns.t -> float
(** Fraction of [elapsed] spent doing useful packet processing — the
    "data-plane CPU utilization" of Fig 3. *)

val on_ring_activity : t -> unit
(** A descriptor landed in this service's ring: wake the poll loop, or
    tell the policy through [work_arrived_while_yielded] when the core is
    lent out. No-op before {!start}. The pipeline's delivery hook calls
    it for the service that owns the delivered core. *)
