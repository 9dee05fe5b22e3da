(** Lightweight structured event tracing for debugging and timeline
    rendering.

    A trace is a bounded in-memory log of [(time, core, category, message)]
    records. A disabled trace costs {!emit} one branch, but the caller has
    already built its message, and {!emitf} still walks its format: every
    per-event site therefore tests {!enabled} first, so an untraced run
    formats nothing. Categories are stable strings (documented in
    DESIGN.md §Observability) so downstream consumers — {!records} readers,
    the metrics timeline fold and the JSON exporter — can rely on them. *)

type t

type record = {
  time : Time_ns.t;
  core : int;  (** emitting physical core, or {!no_core} for global events *)
  category : string;
  message : string;
}

val no_core : int
(** Sentinel [core] value ([-1]) for events not tied to a physical core. *)

(** Stable category names used by the scheduler-wide observability layer.

    [core_state] events carry one of the [state_*] strings as message and
    drive the per-core occupancy timeline; the remaining categories are
    structured scheduling/probe/data-plane/kernel events. *)
module Cat : sig
  val core_state : string
  val state_dp : string
  val state_vcpu : string
  val state_switch : string
  val state_idle : string

  val sched_place : string
  val sched_evict : string
  val sched_slice : string
  val sched_rotate : string
  val sched_halt : string
  val sched_rescue : string
  val sched_borrow : string

  val dp_yield : string
  val dp_resume : string
  val dp_park : string
  val dp_wake : string

  val probe_hw : string
  val probe_sw : string

  val fault : string
  (** An injected fault firing (payload names the fault class). *)

  val recovery : string
  (** A recovery mechanism acting: watchdog escalation, boot/IPI retry,
      mirror resync. *)

  val degraded : string
  (** Degraded-mode engage/re-arm events of the system-wide fallback. *)

  val overload : string
  (** Overload-governor ladder transitions. The payload is self-describing
      for trace_lint: [seq=N from=<level> to=<level> held=<ns> min=<ns>]. *)

  val churn : string
  (** Tenant-lifecycle events (admit, drain, forced escalation, retired).
      The [retired tenant=<id> ...] payload is the marker trace_lint keys
      its frozen-lane check on: no overload transition for that tenant
      may appear after it. *)

  val fleet : string
  (** Cross-NIC fleet events: epoch-boundary exchange sends/receives
      ([send dst=.. seq=.. epoch=..] / [recv src=.. seq=.. epoch=..
      sent=..]), RPC receipts, NIC fault-domain events (crash, brownout,
      partition) and failover placements. trace_lint keys its cross-NIC
      causality check on the [sent=] field of receive records. *)

  val softirq : string

  val kernel_steal : string
  val kernel_migrate : string
  val kernel_reclaim : string
end

val create : ?limit:int -> ?enabled:bool -> unit -> t
(** [create ?limit ?enabled ()] is a trace retaining at most [limit]
    (default 100_000) records; older records are dropped (and counted, see
    {!dropped}). *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val emit : t -> time:Time_ns.t -> ?core:int -> category:string -> string -> unit
(** [emit t ~time ?core ~category msg] appends a record when the trace is
    enabled. *)

val emitf :
  t ->
  time:Time_ns.t ->
  ?core:int ->
  category:string ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** Formatted variant of {!emit}. When the trace is disabled the format
    arguments are discarded through a private null formatter — global
    formatter state (e.g. [Format.str_formatter]) is never touched — but
    the format is still walked, which is why hot callers guard with
    {!enabled}. *)

val records : t -> record list
(** [records t] is the retained records in chronological order. *)

val iter : t -> (record -> unit) -> unit
(** [iter t f] applies [f] to each retained record in chronological order
    without materialising the list. *)

val by_category : t -> string -> record list
val by_core : t -> int -> record list

val length : t -> int

val dropped : t -> int
(** Number of records evicted by the ring-buffer limit since creation (or
    the last {!clear}). *)

val clear : t -> unit

val pp : Format.formatter -> t -> unit
(** [pp fmt t] prints the retained records, one per line. *)
