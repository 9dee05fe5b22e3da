(** I/O work descriptors flowing through the SmartNIC accelerator.

    A "packet" stands for one unit of offloaded I/O — a network frame for
    the DPDK-like service or a block request for the SPDK-like service.
    Timestamps cover the Fig 6 pipeline stages.

    Descriptors on the hot path live in a preallocated {!arena} and
    recycle through a free list (mirroring the Sim event pool), so
    steady-state traffic allocates nothing per packet. {!create} remains
    for cold paths and tests; it heap-allocates a record the arena
    ignores.

    A packet carries no id of its own: code that must tell two packets
    apart compares them physically ([==]), and an arena packet's slot
    is {!index}. *)

open Taichi_engine

type kind = Net_rx | Net_tx | Storage_read | Storage_write

type t = {
  mutable kind : kind;
  mutable size : int;  (** bytes *)
  mutable dst_core : int;
      (** physical core whose data-plane service handles it *)
  mutable tag : int;  (** caller-defined correlation id (flow, op, request) *)
  mutable tenant : int;
      (** owning tenant id, stamped from the destination ring at submit;
          0 = the implicit tenant *)
  mutable t_submit : Time_ns.t;  (** entered the accelerator (Fig 6 ①) *)
  mutable t_ring : Time_ns.t;  (** landed in the service ring (Fig 6 ③) *)
  mutable t_done : Time_ns.t;  (** software processing finished (Fig 6 ④) *)
  idx : int;
      (** arena slot identity, fixed for the record's whole life;
          [-1] for heap packets from {!create} *)
}

val create : kind:kind -> size:int -> dst_core:int -> tag:int -> t
(** Heap-allocate a standalone packet ([idx = -1]); {!free} on it is a
    no-op. For hot paths use {!alloc}. *)

val dummy : t
(** A shared inert record for initialising packet arrays. Never enqueue
    or free it. *)

(** {1 Arena} *)

exception Exhausted
(** Raised by {!alloc} when a [fixed] arena has no free slot. *)

type arena

val arena : ?fixed:bool -> capacity:int -> unit -> arena
(** A preallocated pool of [capacity] descriptor records. By default the
    arena doubles when it runs dry; [~fixed:true] makes {!alloc} raise
    {!Exhausted} instead. *)

val alloc : arena -> kind:kind -> size:int -> dst_core:int -> tag:int -> t
(** Pop a free slot and restamp it in place: no allocation. The caller
    chain owns the record until someone calls {!free}; completion
    callbacks must copy fields they need later, since the slot recycles
    after free. *)

val free : arena -> t -> unit
(** Return a packet's slot to the free list and bump its generation.
    No-op for heap packets ([idx = -1]); raises [Invalid_argument] on a
    double free or a packet from another arena. *)

val index : t -> int
(** The packet's arena slot, [-1] for heap packets. *)

val generation : arena -> int -> int
(** How many times slot [i] has been freed — distinct generations never
    alias. *)

val is_live : arena -> int -> bool
val arena_capacity : arena -> int
val live_packets : arena -> int
