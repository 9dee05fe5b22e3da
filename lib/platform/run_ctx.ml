(* The explicit run context that replaced Exp_common's module-level refs.

   The record itself is immutable — deriving a cell context never mutates
   the parent — but it carries two pieces of owned mutable state:

   - [sink]: where harvested trace runs and collected audit failures
     accumulate. A sweep gives every cell its own sink and merges them
     back in deterministic cell order, so a --jobs 8 run exports the same
     JSON bytes as --jobs 1.

   - [out]: where the cell's human-readable progress output goes. Cells
     buffer; the sweep flushes buffers in cell order, which keeps stdout
     byte-identical under parallelism. *)

type audit_mode = Abort | Collect

type audit_failure = {
  experiment : string;
  seed : int;
  violations : string list;
}

type sink = {
  mutable runs : Taichi_metrics.Export.run list; (* newest first *)
  mutable audits : audit_failure list; (* newest first *)
  mutable engine_scheduled : int; (* Sim events scheduled, summed over runs *)
  mutable engine_processed : int; (* Sim events fired, summed over runs *)
}

type out = Stdout | Buffered of Buffer.t

type t = {
  experiment : string;
  tracing : bool;
  audit : audit_mode;
  sink : sink;
  out : out;
}

let new_sink () =
  { runs = []; audits = []; engine_scheduled = 0; engine_processed = 0 }

let create ?(tracing = false) ?(audit = Abort) ?(experiment = "unnamed") () =
  { experiment; tracing; audit; sink = new_sink (); out = Stdout }

let default = create ()

let experiment t = t.experiment
let tracing t = t.tracing
let audit_mode t = t.audit

let with_experiment t experiment = { t with experiment }

let for_cell t =
  { t with sink = new_sink (); out = Buffered (Buffer.create 1024) }

(* --- output -------------------------------------------------------------- *)

let print_string t s =
  match t.out with
  | Stdout -> print_string s
  | Buffered b -> Buffer.add_string b s

let printf t fmt = Printf.ksprintf (print_string t) fmt

let print_table t table = print_string t (Taichi_metrics.Table.render table)

let banner t title =
  printf t "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Cell output propagates to the parent's output, wherever that points:
   stdout for the CLI, the parent's own buffer when a sweep itself runs
   under a buffered context (the bench's silent timing runs). *)
let flush_into ~into t =
  match t.out with
  | Stdout -> ()
  | Buffered b ->
      print_string into (Buffer.contents b);
      Buffer.clear b

let buffered_contents t =
  match t.out with Stdout -> "" | Buffered b -> Buffer.contents b

(* --- harvest sinks ------------------------------------------------------- *)

let harvest t run = t.sink.runs <- run :: t.sink.runs

let record_audit_failure t failure = t.sink.audits <- failure :: t.sink.audits

let record_engine_events t ~scheduled ~processed =
  t.sink.engine_scheduled <- t.sink.engine_scheduled + scheduled;
  t.sink.engine_processed <- t.sink.engine_processed + processed

let runs t = List.rev t.sink.runs
let audit_failures t = List.rev t.sink.audits

let engine_events t = (t.sink.engine_scheduled, t.sink.engine_processed)

(* Append [src]'s harvest to [dst] preserving completion order within
   [src]; the sweep calls this once per cell, in cell order. *)
let absorb ~into:dst src =
  dst.sink.runs <- List.rev_append (runs src) dst.sink.runs;
  dst.sink.audits <- List.rev_append (audit_failures src) dst.sink.audits;
  dst.sink.engine_scheduled <- dst.sink.engine_scheduled + src.sink.engine_scheduled;
  dst.sink.engine_processed <- dst.sink.engine_processed + src.sink.engine_processed
