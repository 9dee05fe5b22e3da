(** JSON export of traces, timelines and counters.

    One export file holds a list of runs (an experiment may build several
    systems — one per policy); each run carries its counters, the folded
    per-core occupancy timeline and the raw event log. The writer is
    deterministic: same seed, same trace, byte-identical output, so exports
    diff cleanly across PRs. Schema documented in DESIGN.md
    §Observability. *)

open Taichi_engine

val schema : string
(** Schema identifier written into every export ("taichi-trace-v1"). *)

type run = {
  experiment : string;
  policy : string;
  seed : int;
  duration : Time_ns.t;
  cores : int;
  tenants : int list;
      (** registered tenant ids under an explicit multi-tenant table;
          empty — and omitted from the JSON — on single-tenant runs *)
  counters : (string * int) list;
  timeline : Timeline.t;
  events : Trace.record list;
}

val make_run :
  ?tenants:int list ->
  experiment:string ->
  policy:string ->
  seed:int ->
  duration:Time_ns.t ->
  cores:int ->
  counters:(string * int) list ->
  Trace.t ->
  run
(** Snapshot a machine trace into a run record: folds the timeline, sorts
    the counters and captures the retained events. [tenants] (default
    empty) lists the registered tenant ids of a multi-tenant run. *)

val to_string : run list -> string

val write_file : string -> run list -> unit
(** [write_file path runs] writes the export plus a trailing newline. *)

val validate_string : string -> (unit, string) result
(** Parse an export, then run the structural and semantic check used
    by [trace_lint] and the tests:
    schema marker present, timeline rows match the core count, every
    core's [dp + vcpu + switch + idle] equals both its [total_ns] and the
    run's [duration_ns], [core_state.illegal] is zero, [recovery.*] and
    [overload.*] counters are non-negative, event timestamps never run
    backwards, and overload ladder transitions are well-formed: sequence
    numbers increment from 1, each transition departs the rung the
    previous one entered (starting from [normal]), rungs move one at a
    time, and every dwell meets the advertised minimum — checked per
    lane, with [tenant=<id>]-prefixed transitions forming one chain per
    tenant. A tenant's lanes freeze at its [retired tenant=<id>
    forced=<b>] marker: a later transition on them is an error, and so
    is a [churn] payload that starts with [retired ] but does not parse.
    Per-tenant counter sections ([tenant.<id>.<suffix>]) must be
    non-negative, name a tenant id from the run's [tenants] field, and
    sum — per suffix, across tenants — to exactly the global [<suffix>]
    counter. *)
