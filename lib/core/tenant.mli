(** First-class tenants: the unit of isolation for the two-stage weighted
    scheduler, the overload governor's per-tenant ladders, and the
    per-tenant metrics lanes.

    Pre-existing single-tenant configurations run under the implicit
    {!single} table; only an explicit multi-tenant table ({!of_specs}
    with two or more specs) turns on per-tenant counters, trace lanes
    and export fields, keeping single-tenant runs byte-identical to the
    seed baselines.

    Explicit tables are dynamic: {!admit} grows the population mid-run
    and {!set_phase} walks each tenant through the one-way lifecycle
    [Admitted -> Active -> Draining -> Retired]. Ids are dense and never
    reused; a retired tenant keeps its id and its frozen metric lanes. *)

open Taichi_engine

type cls = Critical | Standard | Deferrable
(** Admission classes, ordered by strictly decreasing scheduling
    priority. The overload governor sheds [Deferrable] work first and
    [Critical] work only at the deepest ladder rung. *)

val cls_name : cls -> string
(** Lower-case class name, as used in counter suffixes. *)

val cls_rank : cls -> int
(** [cls_rank c] is the strict-priority rank: 0 = highest. *)

val all_classes : cls list
(** All classes in rank order. *)

type phase = Admitted | Active | Draining | Retired
(** Lifecycle states, in transition order. [Admitted] tenants have been
    accepted but not yet bound to resources; [Active] tenants schedule
    normally; [Draining] tenants finish in-flight work but admit no new
    CP tasks; [Retired] tenants are gone — their lanes are frozen, never
    deleted. *)

type spec = {
  name : string;
  weight : int;  (** share weight for the tenant scheduling stage *)
  cls : cls;  (** default admission class for the tenant's CP tasks *)
  dp_p99_bound : Time_ns.t;
      (** SLO contract: the bound on how far an aggressor may move this
          tenant's dataplane p99 *)
}

val spec :
  ?weight:int -> ?cls:cls -> ?dp_p99_bound:Time_ns.t -> string -> spec
(** [spec name] builds a tenant spec with weight 1, [Standard] class and
    a 150 us p99 contract. Raises [Invalid_argument] on a non-positive
    weight or empty name. *)

type t = private {
  id : int;
  name : string;
  weight : int;
  cls : cls;
  dp_p99_bound : Time_ns.t;
  mutable phase : phase;
}
(** A registered tenant. Ids are dense, assigned in spec/admission
    order. The phase is mutated only through {!set_phase}. *)

type table
(** A tenant registry: either the implicit single tenant or an explicit
    multi-tenant configuration. *)

val single : table
(** The implicit one-tenant table every unconfigured run uses. *)

val of_specs : spec list -> table
(** [of_specs specs] registers tenants with ids in list order, all
    [Active]. The empty list yields {!single}. Raises
    [Invalid_argument] naming the offending spec on a duplicate or empty
    tenant name or a non-positive weight. *)

val admit : table -> spec -> t
(** [admit tbl spec] appends a new tenant in phase [Admitted] with the
    next dense id. Raises [Invalid_argument] on a non-explicit table, a
    bad spec, or a name already held by a non-retired tenant (retired
    names are reusable — the re-admission gets a fresh id). *)

val phase : table -> int -> phase
(** Current lifecycle phase of tenant [id]. *)

val set_phase : table -> int -> phase -> unit
(** [set_phase tbl id next] advances the lifecycle. Raises
    [Invalid_argument] on any transition other than
    [Admitted -> Active -> Draining -> Retired]. *)

val live : table -> int -> bool
(** [live tbl id] is [true] for a registered, non-retired tenant. *)

val accepting : table -> int -> bool
(** [accepting tbl id] is [true] while the tenant may receive new CP
    work: phases [Admitted] and [Active] only. *)

val count : table -> int
val is_multi : table -> bool
(** [is_multi tbl] is [true] only for an explicit table with at least two
    tenants — the gate for all per-tenant instrumentation. *)

val get : table -> int -> t
val mem : table -> int -> bool
val ids : table -> int list
val iter : (t -> unit) -> table -> unit
val total_weight : table -> int

val counter : int -> string -> string
(** [counter id suffix] is the per-tenant counter name
    [tenant.<id>.<suffix>], mirroring the global counter [<suffix>]. *)

val parse_counter : string -> (int * string) option
(** [parse_counter name] splits [tenant.<id>.<suffix>] into
    [(id, suffix)]; [None] for names outside the namespace. *)
