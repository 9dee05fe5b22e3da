(** Calendar timer queue: a 4096-bucket, 512 ns-wide timing wheel with
    the binary heap ({!Pheap}) as an overflow tier for timers beyond the
    ~2.1 ms horizon. Each bucket is a linked list threaded through
    slot-indexed arrays the queue owns, so a fresh queue is ~4.3k words
    and grows by three words per payload slot, not per bucket.

    Payloads are bare ints (the {!Sim} event pool's slot indices); keys
    are (time, seq) pairs and entries dequeue in strict lexicographic
    (time, seq) order — exactly the order a global binary heap keyed the
    same way would produce, which is what keeps every experiment
    byte-identical to the seed engine. Pushes and pops allocate nothing
    beyond growing the slot arrays to a new largest slot.

    The queue does not track its owner's clock; the owner must call
    {!advance} whenever its clock moves forward so the wheel can rotate
    and drain newly-in-horizon overflow timers. Pushes must never be
    earlier than the last advanced time. *)

type t

val slot_bits : int
(** Buckets are [2^slot_bits] ns wide (9: 512 ns). *)

val wheel_bits : int
(** The ring holds [2^wheel_bits] buckets (12: 4,096). A push at or
    past [2^(slot_bits + wheel_bits)] ns after the start of the clock's
    bucket goes to the overflow heap. *)

val create : unit -> t

val length : t -> int
(** Total queued entries, live and tombstoned alike. *)

val is_empty : t -> bool

val push : t -> time:int -> seq:int -> int -> unit
(** [push t ~time ~seq slot] enqueues payload [slot]. [time] must be at
    or after the last {!advance}d time; [seq] must be unique (it is the
    deterministic tie-break). [slot] is a non-negative index that is not
    queued already: the entry is linked through the slot's own cells. *)

val advance : t -> now:int -> unit
(** [advance t ~now] rotates the wheel to [now]'s bucket. Call after
    every clock movement and before the next [push]. Monotone; earlier
    times are ignored. *)

val find_next : t -> bool
(** [find_next t] locates the minimum entry, returning [false] when the
    queue is empty. On [true], {!next_time}, {!next_seq}, {!next_slot}
    and {!drop_next} refer to that entry until the next mutation. *)

val next_time : t -> int
val next_seq : t -> int
val next_slot : t -> int

val drop_next : t -> unit
(** Remove the entry located by the last {!find_next}. *)

val compact : t -> keep:(int -> bool) -> unit
(** [compact t ~keep] drops every entry whose payload fails [keep],
    preserving (time, seq) order of survivors. [keep] is called exactly
    once per entry and may side-effect (the owner frees pool slots in
    it). *)

(** {2 Observers}

    Read by the tests. Both assume the last {!find_next} returned
    [true] and nothing changed since. *)

val head_in_wheel : t -> bool
(** Whether the last {!find_next} located the minimum in the wheel (as
    opposed to the overflow heap). *)

val head_bucket_len : t -> int
(** Entries in the head bucket. *)
