(** The authoritative per-core occupancy state machine.

    Tai Chi's mechanisms — probe-driven eviction (§4.3), the vCPU scheduler
    (§4.1), lock-context rescue, CPU hotplug (Fig. 8) — all hinge on
    knowing, per physical core, exactly who occupies it. This module is the
    single source of truth for that fact: one state word per core, owned by
    {!Machine.t}, mutated only through the typed {!transition} API and
    observed by every other layer.

    Downstream views derive from it rather than duplicate it:
    - [Dp_service.state] is computed from the core's state word;
    - the accelerator [State_table] is an eventually-consistent P/V mirror
      refreshed from a subscriber;
    - trace [core.state] events (and hence the [Timeline] occupancy fold)
      are emitted by the machine's built-in subscriber, not by hand-placed
      call sites.

    Transitions are validated against a legality matrix. In {!Strict} mode
    (the default, and the mode every experiment runs in) an illegal
    transition raises; in {!Permissive} mode it is applied anyway and
    counted, so a run degrades observably instead of crashing. Only
    [test_core_state] sets {!Permissive}, through {!set_mode}.

    Cross-module agreement is checked by {!audit}: modules register
    invariant closures (kernel backing ⇔ [Vcpu_running], service yielded ⇔
    not [Dp_running], mirror lag bounded by the IPI latency) and the test
    suite plus [trace_lint] run the audit after every experiment. *)

open Taichi_engine

type direction =
  | From_dp  (** a data-plane core is being handed to a vCPU or the CP *)
  | To_dp  (** an occupied core is being returned to its data-plane service *)

type state =
  | Offline  (** not yet brought up by the platform *)
  | Dp_running  (** data-plane service busy processing packets *)
  | Dp_counting  (** data-plane service polling an empty ring *)
  | Dp_parked  (** data-plane service parked after the idle threshold *)
  | Vcpu_running of int  (** backing the vCPU with this [vid] *)
  | Switching of direction  (** paying a world-switch in this direction *)
  | Cp_dedicated  (** running control-plane work under the kernel *)

(** Why a transition happened; carried on every {!event}. *)
type cause =
  | Hotplug  (** platform bring-up / service start *)
  | Yield  (** data-plane service yielded its core *)
  | Place  (** vCPU scheduler placed a vCPU *)
  | Probe  (** hw/sw probe found pending work and evicted *)
  | Slice_expiry  (** time-slice expiry *)
  | Halt  (** guest HLT exit *)
  | Lock_rescue  (** §4.1 lock-context rescue *)
  | Borrow  (** CP pCPU borrowed beneath the OS *)
  | Park  (** idle threshold reached, service parks *)
  | Wake  (** ring activity woke a counting/parked service *)
  | Drain  (** service drained its ring and resumed counting *)
  | Resume  (** yielded service got its core back *)
  | Lend  (** kernel lent the idle core to CP work (co-schedule) *)
  | Watchdog  (** hung-vCPU / stuck-borrow watchdog forced the change *)

type event = {
  core : int;
  from_state : state;
  to_state : state;
  cause : cause;
  at : Time_ns.t;
  legal : bool;  (** [false] iff the legality matrix rejected it *)
}

type mode =
  | Strict  (** illegal transitions raise [Illegal_transition] *)
  | Permissive  (** illegal transitions are applied and counted *)

exception Illegal_transition of string

type t

val create : cores:int -> now:(unit -> Time_ns.t) -> t
(** [create ~cores ~now] is a state machine for cores [0..cores-1], all
    [Offline], in {!Strict} mode. [now] supplies timestamps for events and
    dwell accounting (normally [fun () -> Sim.now sim]). *)

val cores : t -> int
val mode : t -> mode
val set_mode : t -> mode -> unit

val get : t -> core:int -> state
(** [get t ~core] is the authoritative state of [core]. *)

val since : t -> core:int -> Time_ns.t
(** [since t ~core] is when [core] entered its current state. *)

val legal : from:state -> to_:state -> bool
(** The legality matrix, exposed for tests. *)

val transition : t -> core:int -> cause:cause -> state -> unit
(** [transition t ~core ~cause st] moves [core] to [st], closing the dwell
    span of the previous state and fanning the {!event} out to subscribers
    in subscription order. An illegal transition raises in {!Strict} mode
    (before any state change or fan-out); in {!Permissive} mode it is
    applied, counted (see {!illegal_transitions}) and fanned out with
    [legal = false]. Raises [Invalid_argument] for an out-of-range core. *)

val subscribe : t -> (event -> unit) -> unit
(** [subscribe t f] appends [f] to the fan-out list. Subscribers run
    synchronously inside {!transition}, in subscription order — a
    deterministic total order relied on by the trace and the mirror. *)

val transitions : t -> int
(** Total transitions applied since creation. *)

val illegal_transitions : t -> int
(** Illegal transitions observed (only non-zero in {!Permissive} mode,
    since {!Strict} raises before recording). *)

val dwell : t -> core:int -> (string * Time_ns.t) list
(** [dwell t ~core] is cumulative time spent per state label (sorted by
    label), including the still-open span of the current state. Labels
    with no time are left out. *)

val dwell_in : t -> core:int -> state -> Time_ns.t
(** [dwell_in t ~core st] is the one cell of {!dwell} for [st]'s label
    (0 when absent), read without building the list: the per-sample
    reader. *)

val state_label : state -> string
(** Stable per-state label used by {!dwell}: ["offline"], ["dp_running"],
    ["dp_counting"], ["dp_parked"], ["vcpu"], ["switching"], ["cp"]. *)

val trace_state : state -> string
(** Maps a state onto the coarse [Trace.Cat.state_*] occupancy buckets the
    timeline fold understands: [Dp_running]/[Dp_counting] are busy
    data-plane time ("dp"), [Dp_parked]/[Cp_dedicated]/[Offline] are "idle"
    from the NIC's perspective, [Vcpu_running] is "vcpu" and [Switching] is
    "switch". *)

val cause_label : cause -> string

val add_invariant : t -> name:string -> (unit -> string list) -> unit
(** [add_invariant t ~name f] registers a cross-module invariant: [f ()]
    returns human-readable violations (empty when the invariant holds).
    Checkers run in registration order. *)

val audit : t -> string list
(** [audit t] is every current violation: a non-zero illegal-transition
    count plus whatever the registered invariants report. Empty means the
    machine-wide view is coherent. *)
