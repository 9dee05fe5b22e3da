(** The seed binary-heap simulator, kept verbatim as the differential
    oracle for {!Taichi_engine.Sim}.

    This is the pre-calendar-queue engine: one {!Taichi_engine.Pheap}
    entry per event, one handle record per event, tombstone cancellation
    with the same compaction policy [Sim] implements. It lives in the
    test suite only: the qcheck differential properties in [Test_engine]
    drive random timer programs through both engines and assert
    identical fire order, clocks and counters. *)

open Taichi_engine

type t
(** A simulator instance. *)

type handle
(** A handle on a scheduled event, usable to cancel it. *)

val create : unit -> t
(** [create ()] is a fresh simulator with the clock at time 0. *)

val now : t -> Time_ns.t
(** [now sim] is the current simulated time. *)

val at : t -> Time_ns.t -> (unit -> unit) -> handle
(** [at sim time f] schedules [f] to run at absolute [time]. Scheduling in
    the past raises [Invalid_argument]. *)

val after : t -> Time_ns.t -> (unit -> unit) -> handle
(** [after sim delay f] schedules [f] to run [delay] from now. *)

val immediate : t -> (unit -> unit) -> handle
(** [immediate sim f] schedules [f] at the current time, after all callbacks
    already queued for this instant. *)

val cancel : handle -> unit
(** [cancel h] prevents the event from firing. Cancelling an event that has
    already fired or been cancelled is a no-op. *)

val is_pending : handle -> bool
(** [is_pending h] is [true] iff the event has neither fired nor been
    cancelled. *)

val fire_time : handle -> Time_ns.t
(** [fire_time h] is the absolute time the event was scheduled for. *)

val run : ?until:Time_ns.t -> t -> unit
(** [run ?until sim] processes events in time order until the queue is
    empty, or until the clock would pass [until]. When stopped by [until],
    the clock is left exactly at [until]. *)

val step : t -> bool
(** [step sim] processes the single next event. Returns [false] when the
    queue is empty. *)

val pending_events : t -> int
(** [pending_events sim] is the number of live (uncancelled) events. *)

val events_processed : t -> int
(** [events_processed sim] counts events fired since creation, a useful
    progress and complexity metric. *)

val events_scheduled : t -> int
(** [events_scheduled sim] counts sequence numbers issued since
    creation. *)

val dead_events : t -> int
(** [dead_events sim] is the number of cancelled tombstones currently
    sitting in the event heap. Cancellation is lazy; tombstones are swept
    either on pop or by compaction when they exceed ~2x the live count. *)

val compactions : t -> int
(** [compactions sim] counts in-place heap rebuilds triggered by tombstone
    accumulation since creation. *)
