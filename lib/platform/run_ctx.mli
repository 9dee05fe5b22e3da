(** Explicit, immutable experiment run context.

    Replaces the module-level [set_tracing] / [set_experiment] /
    [set_audit_collect] / [trace_runs] / [audit_failures] refs that used
    to live in {!Exp_common}: everything a run needs to know (tracing
    on/off, experiment label, audit mode) and everything it produces
    (harvested trace runs, collected audit violations, progress output)
    flows through a value of this type. The record is immutable; the
    harvest sink and the output buffer it points at are owned by exactly
    one cell at a time, which is what makes the domain-parallel sweep
    race-free and bit-deterministic. *)

type audit_mode =
  | Abort  (** post-run audit violations raise [Failure] (tests, bench) *)
  | Collect
      (** violations are recorded in the sink so a batch completes and the
          CLI can exit with its distinct audit status *)

type audit_failure = {
  experiment : string;
  seed : int;
  violations : string list;
}

type t

val create :
  ?tracing:bool -> ?audit:audit_mode -> ?experiment:string -> unit -> t
(** Fresh context with a fresh, empty harvest sink, writing output
    straight to stdout. Defaults: tracing off, [Abort], ["unnamed"]. *)

val default : t
(** [create ()] — the context used when a caller has no opinion. *)

val experiment : t -> string
val tracing : t -> bool
val audit_mode : t -> audit_mode

val with_experiment : t -> string -> t
(** Same sink and output, new experiment label. *)

val for_cell : t -> t
(** Derive a per-cell context: same tracing / audit mode / experiment
    label, but a fresh private sink and a fresh private output buffer.
    The sweep runs one cell per derived context, then merges with
    {!absorb} and {!flush_into} in deterministic cell order. *)

val printf : t -> ('a, unit, string, unit) format4 -> 'a
val print_table : t -> Taichi_metrics.Table.t -> unit

val banner : t -> string -> unit
(** Section header ("title\n=====") through the context's output. *)

val flush_into : into:t -> t -> unit
(** [flush_into ~into:parent cell] moves the cell's buffered output to
    the parent's output (stdout, or the parent's own buffer when the
    whole sweep runs buffered); no-op on an unbuffered cell. *)

val buffered_contents : t -> string
(** Current buffered output without clearing it; [""] on an unbuffered
    context. The equivalence tests run whole sweeps under a buffered
    context and compare these bytes across job counts. *)

val harvest : t -> Taichi_metrics.Export.run -> unit
val record_audit_failure : t -> audit_failure -> unit

val record_engine_events : t -> scheduled:int -> processed:int -> unit
(** Accumulate one finished system's simulator event counters into the
    sink. [Exp_common.with_system] calls this for every run, so a cell
    context's totals tell the bench how much engine work a cell did. *)

val runs : t -> Taichi_metrics.Export.run list
(** Harvested trace runs, in completion order. *)

val audit_failures : t -> audit_failure list
(** Collected audit failures, in completion order. *)

val engine_events : t -> int * int
(** [(scheduled, processed)] simulator event totals accumulated by
    {!record_engine_events} (and merged by {!absorb}). *)

val absorb : into:t -> t -> unit
(** [absorb ~into:parent cell] appends the cell sink's runs and audit
    failures to the parent sink, preserving the cell's internal order. *)
