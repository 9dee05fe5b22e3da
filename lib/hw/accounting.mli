(** Per-core CPU-time accounting by activity class.

    Every consumer of core time reports its busy intervals here, giving
    experiments an exact breakdown of where each core's cycles went —
    data-plane work, control-plane work borrowed through Tai Chi, spinning,
    context-switch overhead — and, by subtraction, idle time. *)

open Taichi_engine

type cpu_class =
  | Dp_work  (** data-plane packet / IO processing *)
  | Dp_poll  (** empty polling in the data-plane loop *)
  | Cp_work  (** control-plane task execution *)
  | Spin  (** spinlock busy-waiting *)
  | Switch  (** context-switch and VM-entry/exit overhead *)
  | Os  (** scheduler, softirq and interrupt handling *)

type t

val create : cores:int -> t

val charge : t -> core:int -> cpu_class -> Time_ns.t -> unit
(** [charge t ~core cls d] attributes [d] of busy time on [core] to
    [cls]. Negative durations raise [Invalid_argument]. *)

val busy : t -> core:int -> Time_ns.t
(** Total charged time on [core]. *)

val busy_class : t -> core:int -> cpu_class -> Time_ns.t

val total_class : t -> cpu_class -> Time_ns.t
(** Sum over all cores. *)

val utilization : t -> core:int -> elapsed:Time_ns.t -> float
(** [utilization t ~core ~elapsed] is busy/elapsed, clamped to [0, 1]. *)
