(** NIC-level fault domains for a fleet run.

    A plan is a deterministic, epoch-keyed schedule of fleet faults —
    NIC crashes, brownouts, one fabric bisection, drain-window overruns
    aimed at the failover tail — computed up front so the fleet's
    sequential controller replays it identically at any [--jobs] count.

    Per-NIC decisions draw from that NIC's own named stream
    ([Rng.split root "nic<i>.<class>"]), mirroring {!Injector}'s
    per-class streams: adding a fault class or a NIC never perturbs the
    draws of another. *)

open Taichi_engine

type event =
  | Crash of int  (** permanently kill the NIC at this epoch's end *)
  | Brownout_start of int
  | Brownout_end of int
  | Partition_start of int array  (** group id per NIC *)
  | Partition_end
  | Drain_overrun of int
      (** pin a drain open past its window mid-failover; this NIC is the
          pin's preferred home, not where it must land *)

type spec = {
  crashes : int;
  crash_window : int * int;  (** inclusive epoch window for crashes *)
  brownouts : int;
  brownout_hold : int;
  partition : bool;
  partition_hold : int;
  overruns : int;
}

val quiet : spec
(** No fleet faults — the integrity baseline. *)

val plan : rng:Rng.t -> nics:int -> epochs:int -> spec -> (int * event) list
(** [(epoch, event)] schedule sorted by epoch (stable class order within
    an epoch), every epoch clamped into [0, epochs-1]. *)
