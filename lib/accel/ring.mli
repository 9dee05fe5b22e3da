(** A bounded descriptor ring between the accelerator and one data-plane
    service — the memory "shared with the corresponding DP service" of
    Fig 6 ③.

    The buffer starts at [min capacity 16] entries and doubles, keeping
    FIFO order, when a push finds it full; [capacity] bounds that growth
    and is the point at which pushes drop. *)

type t

val create : ?capacity:int -> ?tenant:int -> name:string -> unit -> t
(** [create ~name ()] is an empty ring; default capacity 4096, owned by
    the implicit tenant 0. *)

val name : t -> string
val capacity : t -> int

val tenant : t -> int
(** [tenant t] is the owning tenant id; packets delivered into this ring
    are stamped with it. *)

val set_tenant : t -> int -> unit
(** Reassign ring ownership. The tenant-churn lifecycle hands floating
    rings to a newly admitted tenant and back to the pool on retire;
    packets already resident keep the stamp they were delivered with. *)

val length : t -> int
val is_empty : t -> bool

val iter : (Packet.t -> unit) -> t -> unit
(** Visit resident descriptors FIFO-first; the drain audit uses this to
    prove a retired tenant left no packets behind. *)

val push : t -> Packet.t -> bool
(** [push t pkt] enqueues and returns [true], growing the buffer if it
    is full below [capacity]; returns [false] (and counts a drop) when
    the ring holds [capacity] descriptors. *)

val pop_burst : t -> max:int -> Packet.t list
(** [pop_burst t ~max] dequeues up to [max] descriptors in FIFO order —
    [rte_eth_rx_burst] semantics. Allocates the list; hot consumers use
    {!pop_burst_into}. *)

val pop_burst_into : t -> Packet.t array -> max:int -> int
(** [pop_burst_into t dst ~max] dequeues up to
    [min max (Array.length dst)] descriptors into [dst.(0..n-1)] and
    returns [n] — the allocation-free burst used on the service poll
    loop. *)

val drops : t -> int
val total_enqueued : t -> int
