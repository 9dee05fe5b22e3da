(** The programmable I/O preprocessing pipeline (Fig 6).

    Every offloaded I/O descriptor walks two hardware stages before any
    software sees it: preprocessing (payload handling inside the
    accelerator, 2.7 µs) and transfer into the ring shared with the
    data-plane service (0.5 µs). The pipeline exposes a probe hook that
    fires at packet {e detection}, before preprocessing starts — the
    scheduling window Tai Chi's hardware workload probe exploits to hide
    the 2 µs vCPU switch (§3.4 Observation 4). *)

open Taichi_engine

type config = {
  preprocess : Time_ns.t;  (** Fig 6 stage ② *)
  transfer : Time_ns.t;  (** Fig 6 stage ③ *)
}

val default_config : config
(** 2.7 µs + 0.5 µs, the paper's measured stage times. *)

type t

val create : ?config:config -> Sim.t -> t

val config : t -> config

val arena : t -> Packet.arena
(** The descriptor pool everything submitted through this pipeline is
    allocated from. Clients {!Packet.alloc} here; the consuming service
    frees once [on_packets_done] returns, and the pipeline itself frees
    descriptors a full ring drops. *)

val window : t -> Time_ns.t
(** [window t] is the total hardware window (preprocess + transfer). *)

val attach_ring : t -> core:int -> Ring.t -> unit
(** Bind the ring that receives descriptors destined to [core]. *)

val ring : t -> core:int -> Ring.t
(** Raises [Not_found] when no ring is attached. *)

val set_probe_hook : t -> (Packet.t -> unit) option -> unit
(** Install the detection-time hook (the hardware workload probe). *)

val set_deliver_hook : t -> (core:int -> unit) -> unit
(** Called after a descriptor lands in a ring, with the destination core —
    how the data-plane service model learns its ring became non-empty. *)

val submit : t -> Packet.t -> unit
(** [submit t pkt] runs the probe hook now, then delivers the descriptor to
    its core's ring after the hardware window. Stamps [t_submit] and
    [t_ring]. *)

val in_flight : t -> core:int -> int
(** Descriptors submitted but not yet delivered for [core] — the yield
    race window the vCPU scheduler re-checks before committing a yield. *)

val delivered : t -> int
