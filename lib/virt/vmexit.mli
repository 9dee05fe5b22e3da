(** VM-exit reasons.

    The subset of hardware exit reasons Tai Chi's vCPU scheduler reacts to;
    the reason drives both the adaptive time slice and the adaptive
    empty-polling threshold (§4.1, §4.3). *)

type t =
  | Timeslice_expired
      (** the scheduler's preemption timer fired — sustained data-plane
          idleness, so the slice doubles *)
  | Hw_probe_irq
      (** the hardware workload probe detected I/O for this core — a
          false-positive yield, so the slice resets and the threshold
          grows *)
  | Ipi_send  (** the guest context issued an IPI that must be reissued *)
  | Halt  (** the vCPU went idle (no runnable control-plane work) *)
  | External of string  (** any other host-initiated exit *)

val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit
