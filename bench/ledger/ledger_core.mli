(** Pure helpers of the performance ledger: order statistics, counter
    aggregation into layer metrics, failure accounting and span self
    times. Nothing here runs the simulator or reads the clock (the span
    recorder takes its clock as an argument), so the unit tests check
    every rule on hand-made inputs. *)

(** {1 Order statistics} *)

val quartiles : float list -> float * float * float
(** [(q1, median, q3)] by the exclusive method of Python's
    [statistics.quantiles(values, n=4)], so the ledger's numbers match
    the ones a reader recomputes from its raw samples. A single value is
    returned three times. Raises [Invalid_argument] on an empty list. *)

val median : float list -> float
(** The middle quartile of {!quartiles}. *)

val frac : int -> int -> float
(** [frac a b] is [a / b], or 0 when [b = 0]. *)

(** {1 Host speed} *)

val reference_calib_s : float
(** A fixed time for one calibration pass ([Workloads.calibrate]): 4 ms,
    close to its time on the reference host, a 2-core shared x86-64 VM
    running OCaml 5.1 (3.2-3.8 ms there). *)

val at_reference : calib:float -> float -> float
(** [at_reference ~calib t] rescales a time [t], measured while the
    calibration loop took [calib] seconds, to the reference host's
    speed: [t *. reference_calib_s /. calib]. *)

val scaled_wall : total:float -> (float * float) list -> float
(** [scaled_wall ~total ops] rescales a repetition's wall time [total]
    to the reference host's speed. [ops] are the [(wall, calib)] pairs
    of its operations; the factor is the wall-weighted mean of their
    {!at_reference} factors. [total] itself when [ops] add up to no
    time. *)

val op_medians : (string * float) list list -> float
(** [op_medians reps] sums, over the keys of the first repetition, each
    key's median time across the repetitions that have it. A moment of
    contention that slows one operation of one repetition then moves
    nothing, where it would move that repetition's total. 0 for no
    repetitions. *)

(** {1 Layer counters} *)

type source =
  | Get of string  (** one global counter, by exact name *)
  | Sum of string  (** every global counter whose name starts with this *)

val layer_counters : (string * source) list
(** Per-layer count metrics and the simulator counters they read. *)

val layer_counts : (string * int) list -> (string * int) list
(** [layer_counts dump] evaluates {!layer_counters} over [dump], in
    table order. Per-tenant mirrors (["tenant.<id>.<suffix>"]) never
    match a source: they repeat the globals. *)

(** {1 Failure accounting} *)

val faults :
  exn:string option ->
  oracle:string option ->
  audit:string list ->
  illegal:int ->
  lost:int ->
  string list
(** The failures seen inside one repetition of one operation: an
    exception, a failed [summarize] oracle of the operation's
    experiment, Core_state audit violations, [core_state.illegal > 0],
    or committed tenants lost with failover on. Empty means it passed. *)

type op = {
  key : string;
  digest : string;  (** hex MD5 of everything the operation printed *)
  faults : string list;  (** from {!faults} *)
}

type rep = { traced : bool; ops : op list }

val account : expected:string list -> rep list -> int * (string * string) list
(** [account ~expected reps] is [(attempted, failures)]. Every
    repetition attempts each key of [expected] once. An attempt fails
    when it is missing from its repetition, has a fault, or its digest
    differs from that key's digest in the first untraced repetition
    (the first repetition when all are traced). [failures] lists
    [(key, reason)] for each failed attempt, in repetition order. *)

(** {1 Spans} *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  name : string;
  start : float;  (** seconds, on the recorder's clock *)
  stop : float;
}

type recorder

val recorder : now:(unit -> float) -> recorder

val span : recorder -> string -> (unit -> 'a) -> 'a
(** [span r name f] runs [f] inside a span that is a child of the
    innermost open span. The span is closed (and kept) when [f] returns
    or raises. *)

val adopt : recorder -> span list -> unit
(** Attach spans recorded elsewhere (a child process, on the same wall
    clock) under the innermost open span, renumbering their ids. *)

val spans : recorder -> span list
(** Closed spans, in start order. *)

val self_time : span list -> span -> float
(** A span's duration minus the part of its interval its direct
    children cover. *)
