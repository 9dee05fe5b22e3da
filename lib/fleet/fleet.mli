(** A rack of simulated NICs with a deterministic cross-NIC message
    exchange at epoch boundaries.

    The fleet is generic over the per-NIC universe ['nic] (the
    System-backed instantiation lives in taichi_platform): this module
    owns membership (alive / browned / crashed), the fabric partition,
    per-NIC outboxes and the epoch loop. Sends on NIC [i] during epoch
    [e] are delivered on NIC [j] at the start of epoch [e+1], in
    canonical (src-nic, per-src seq) order — and because each NIC's epoch
    work touches only NIC-local state while the exchange itself runs
    sequentially between epochs, stdout, traces and counters are
    byte-identical at any [jobs] count (DESIGN.md §15).

    Every exchange and membership event increments a [fleet.*] counter in
    the affected NIC's registry and reports through the [emit] callback
    (the harness points it at each NIC's trace, category
    {!Taichi_engine.Trace.Cat.fleet}). *)

open Taichi_engine

type msg = {
  src : int;
  dst : int;
  seq : int;  (** per-src monotonically increasing send sequence *)
  sent_epoch : int;
  payload : string;
}

type state = Alive | Browned | Crashed

val state_label : state -> string

type 'nic t

val create :
  nics:'nic array ->
  counters:Counters.t array ->
  ?emit:(nic:int -> string -> unit) ->
  unit ->
  'nic t
(** [create ~nics ~counters ()] is a fleet of [Array.length nics] NICs,
    all alive, with one counter registry per NIC (the harness passes each
    Machine's registry so [fleet.*] receipts land in the per-NIC trace
    exports). [emit ~nic msg] is called for every fleet event on that
    NIC. *)

val size : 'nic t -> int
val nic : 'nic t -> int -> 'nic
val counters : 'nic t -> Counters.t array

val epoch : 'nic t -> int
(** The current epoch: the one being executed during {!run}'s callbacks,
    [epochs] after {!run} returns. *)

val state : 'nic t -> int -> state
val alive : 'nic t -> int -> bool
(** [alive t i] is [true] unless NIC [i] has crashed ([Browned] counts as
    alive — slow, not dead). *)

val survivors : 'nic t -> int list
(** Ascending ids of the non-crashed NICs. *)

(** {2 Membership and fabric events}

    Controller-phase only: call these from {!run}'s [control] callback
    (or before {!run}); calling them from [deliver]/[advance] would race
    other NIC domains. *)

val crash : 'nic t -> int -> unit
(** Kill NIC [i] at the end of the current epoch: its epoch-[e] outbox is
    lost ([fleet.exchange.lost_crash]), it executes no further epochs,
    and messages addressed to it drop ([fleet.exchange.lost_down]). *)

val brownout : 'nic t -> int -> unit
(** Mark NIC [i] browned (slow). The fleet still runs and routes it; the
    harness reads {!state} to degrade the NIC's own epoch work. *)

val recover : 'nic t -> int -> unit
(** End a brownout. No effect on crashed NICs — a crash is permanent. *)

val partition : 'nic t -> groups:int array -> unit
(** Split the fabric: [groups.(i)] is NIC [i]'s side. Messages whose
    endpoints differ drop at the exchange
    ([fleet.exchange.lost_partition]) until {!heal}. *)

val heal : 'nic t -> unit

(** {2 Exchange} *)

val send : 'nic t -> src:int -> dst:int -> string -> unit
(** Queue [payload] from NIC [src] for delivery to NIC [dst] at the start
    of the next epoch. Safe from [src]'s own [deliver]/[advance] (the
    outbox is NIC-local) and from [control]. Sends from a crashed NIC are
    ignored. *)

val run :
  ?jobs:int ->
  ?control:(epoch:int -> unit) ->
  'nic t ->
  epochs:int ->
  deliver:(nic:int -> msg -> unit) ->
  advance:(nic:int -> epoch:int -> unit) ->
  unit
(** [run t ~epochs ~deliver ~advance] executes the epoch loop. Each
    epoch: (1) every live NIC — on up to [jobs] worker domains — drains
    its inbox in (src, seq) order through [deliver], then runs [advance]
    for the epoch; (2) the sequential [control] hook fires (fault events,
    failover); (3) the exchange routes every outbox into the next epoch's
    inboxes. A callback exception is re-raised after the phase completes,
    first failure in NIC order, so [jobs] never changes which error
    surfaces. *)
