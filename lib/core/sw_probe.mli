(** The software workload probe: adaptive yield criteria (§4.3).

    Keeps, per data-plane core, the consecutive-empty-poll threshold N that
    decides when the poll loop declares idleness. N adapts from VM-exit
    reasons: a time-slice-expiry exit means the data plane stayed idle, so
    N shrinks (yield sooner, donate more cycles); a hardware-probe exit
    means the yield was a false positive, so N doubles (filter harder). *)

open Taichi_hw

type t

val create : ?machine:Machine.t -> Config.t -> cores:int -> t
(** [create ?machine config ~cores]. When [machine] is given, threshold
    adjustments are emitted into the machine trace ([probe.sw] category)
    and counted in the machine's counter registry. *)

val threshold : t -> core:int -> int
(** Current N for [core]. *)

val on_sustained_idle : t -> core:int -> unit
(** A time-slice-expiry VM-exit happened while this core hosted a vCPU. *)

val on_false_positive : t -> core:int -> unit
(** The hardware probe (or pending work at slice expiry) evicted a vCPU
    from this core — the yield fired too eagerly. *)

val false_positives : t -> core:int -> int
