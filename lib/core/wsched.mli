(** Two-stage weighted run queue: tenant stage (weighted
    deficit-round-robin over accumulated grant time, work-conserving),
    then class stage (strict-priority FIFO over admission-class ranks).

    Pure and deterministic — integer virtual clocks, no wall time, no
    randomness — so it is property-testable in isolation; {!Vcpu_sched}
    drives it as its runnable queue. With a single tenant and a single
    occupied class it reduces exactly to the flat FIFO the seed
    scheduler used.

    Lanes are dynamic: {!admit} grows the queue mid-run and {!retire}
    freezes a lane without deleting it, so tenant ids stay dense and
    cumulative grant totals survive the tenant. *)

type 'a t

val create : weights:int array -> classes:int -> 'a t
(** [create ~weights ~classes] builds an empty queue with one share
    weight per tenant (ids are the array indices) and [classes] strict
    priority ranks per tenant. Raises [Invalid_argument] naming the
    offender on an empty weights array or a non-positive weight, and on
    [classes <= 0]. *)

val admit : 'a t -> weight:int -> int
(** [admit t ~weight] appends a live lane and returns its tenant id.
    The new lane's virtual clock starts at the active minimum (the
    smallest clock among live backlogged lanes, or virtual now when all
    are idle): a newcomer competes on equal terms and a re-admitted
    tenant banks no credit from its previous life. No other lane's
    clock is disturbed. *)

val retire : 'a t -> tenant:int -> unit
(** [retire t ~tenant] marks the lane dead: selection skips it and
    further pushes/charges raise. The lane keeps its id and its
    {!granted} total. Raises [Invalid_argument] if the lane still has
    queued entries (see {!flush}) or was already retired. *)

val flush : 'a t -> tenant:int -> 'a list
(** [flush t ~tenant] removes and returns every queued element of one
    tenant in pop order (class rank, then FIFO), leaving all other
    lanes' clocks untouched. The force-retire path drains with this
    before {!retire}. *)

val is_live : 'a t -> tenant:int -> bool
(** [false] once the lane has been retired. *)

val tenants : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool

val backlog : 'a t -> tenant:int -> int
(** Queued elements for one tenant. *)

val push : 'a t -> tenant:int -> cls:int -> 'a -> unit
(** [push t ~tenant ~cls x] enqueues [x] on [tenant]'s rank-[cls] FIFO
    (out-of-range ranks are clamped). A tenant idle until now re-enters
    at the current virtual time — sleeping banks no credit. *)

val pop : gate:(int -> bool) -> 'a t -> 'a option
(** [pop ~gate t] serves the backlogged tenant with the smallest virtual
    grant clock (ties to the lower id) whose [gate tenant] consents,
    popping its highest-priority non-empty class FIFO. Tenants whose
    gate refuses are skipped for this pop only; [None] when empty or
    every backlogged tenant is gated. The gate is consulted at most once
    per tenant per pop, and never when the queue is empty. *)

val charge : 'a t -> tenant:int -> int -> unit
(** [charge t ~tenant ns] accounts [ns] of pCPU grant time to [tenant],
    advancing its virtual clock by [ns / weight]. *)

val granted : 'a t -> tenant:int -> int
(** Cumulative raw grant time charged to [tenant]. *)

val exists : ('a -> bool) -> 'a t -> bool
(** [exists p t] is [true] iff any queued element satisfies [p]. *)
