(** A named-counter registry with interned handles.

    One flat namespace of monotonically increasing integer counters,
    shared by every subsystem of a machine (the scheduler, data-plane
    services, probes, the kernel). Dotted names give a stable hierarchy,
    e.g. ["sched.placements"] or ["dp.yields"].

    Hot paths register once with {!handle} and then increment through
    {!incr_h}: a single array load and store, no string hashing and no
    allocation. The string API stays for cold paths; {!dump} is
    explicitly sorted by name so exports are deterministic.

    A counter only materialises (appears in {!dump}) once it has been
    incremented — registering a handle alone leaves it invisible, and
    {!get} on it reads 0. *)

type t

type handle
(** A dense int naming one registered counter of one table. Handles are
    only meaningful against the table that issued them. *)

val create : unit -> t

val handle : t -> string -> handle
(** [handle t name] interns [name], registering it on first use. Cold:
    one Hashtbl probe. Call it once at setup and keep the handle. *)

val incr_h : t -> ?by:int -> handle -> unit
(** [incr_h t ?by h] adds [by] (default 1) to the counter behind [h]:
    the per-event fast path. *)

val add_h : t -> handle -> int -> unit
(** [add_h t h by] is [incr_h t ~by h] without the optional-argument
    boxing: use it when the amount is computed per event (byte counts)
    and the call must stay allocation-free. *)

val incr : t -> ?by:int -> string -> unit
(** [incr t ?by name] adds [by] (default 1) to counter [name], creating
    it at zero first if needed. Equivalent to registering and using the
    handle; one table lookup. *)

val get : t -> string -> int
(** [get t name] is the counter's value, 0 if never incremented. *)

val dump : t -> (string * int) list
(** All counters that have been incremented at least once, sorted by
    name. *)

val clear : t -> unit
(** Reset every cell to the never-incremented state. Registered handles
    and lanes remain valid. *)

val pp : Format.formatter -> t -> unit

(** {1 Per-tenant lanes}

    The ["tenant.<id>.<suffix>"] mirror counters form a dense matrix:
    one {!lane} per suffix, one row slot per tenant id. The lane interns
    each (tenant, suffix) name the first time that pair is touched —
    lazily, so tenants admitted mid-run (churn) get their cells without
    any pre-registration — and every increment after that is an array
    load away, replacing the per-event [Printf.sprintf]. *)

type lane

val lane : t -> string -> lane
(** [lane t suffix] is the per-tenant lane mirroring global counter
    [suffix]. Cold: call at setup, keep the lane. *)

val lane_incr : lane -> ?by:int -> int -> unit
(** [lane_incr l ?by tenant] increments ["tenant.<tenant>.<suffix>"]. *)
