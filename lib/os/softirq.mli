(** Software interrupts (softirqs).

    Tai Chi's vCPU scheduler enters and leaves guest context through a
    dedicated softirq raised on the target CPU (§4.1): raising a vector
    schedules its handler to run on that CPU at the next opportunity, with
    a small fixed dispatch cost charged to the core. This module models
    exactly that: per-CPU vectors, deferred handler execution, and
    accounting of handler dispatch overhead.

    Vectors are [0 .. 63] on every CPU. Every function taking
    [~cpu ~vector] raises [Invalid_argument] on a negative CPU or a
    vector outside that range. *)

open Taichi_engine
open Taichi_hw

type t

val vector_taichi : int
(** The dedicated vector Tai Chi registers (an arbitrary high number kept
    stable for traces). *)

val create : ?dispatch_cost:Time_ns.t -> Machine.t -> t
(** [create machine] with a default 200 ns dispatch cost per handler. *)

val register : t -> cpu:int -> vector:int -> (unit -> unit) -> unit
(** [register t ~cpu ~vector f] installs the handler; one handler per
    (cpu, vector), replacing any previous one. *)

val raise_softirq : t -> cpu:int -> vector:int -> unit
(** [raise_softirq t ~cpu ~vector] marks the vector pending on [cpu]; the
    handler runs after the dispatch cost. Raising an already-pending
    vector coalesces (one handler run), like the real mechanism. *)

val pending : t -> cpu:int -> vector:int -> bool

val raised_count : t -> int
val handled_count : t -> int
val coalesced_count : t -> int
