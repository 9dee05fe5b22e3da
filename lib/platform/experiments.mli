(** Registry of every paper table and figure reproduction. *)

val all : Exp_desc.t list
(** Descriptors in paper order: fig2, fig3, fig4, fig5, fig6, fig11,
    fig12, fig13, table5, fig14, fig15, fig16, fig17, table1, table2,
    sec8, the [ablations] suite, the [chaos] fault-injection matrix (see
    {!Exp_chaos}), the [overload] brownout-governor storm matrix (see
    {!Exp_overload}), plus the [multitenant] isolation grid (see
    {!Exp_multitenant}). Run them through {!Sweep.run}. *)

val find : string -> Exp_desc.t option
(** Look an experiment up by name. *)

(** A narrowing flag of the CLI: it restricts one experiment's grid. *)
type narrowing = {
  flag : string;  (** the option name, without its dashes *)
  experiment : string;  (** the registry id of the experiment it narrows *)
  doc : string;  (** its [--help] text *)
  values : (string * (Exp_desc.cell -> bool)) list;
      (** every value it accepts, with the cell filter that value sets *)
}

val narrowings : narrowing list
(** [--chaos-profile], [--overload], [--aggressor], [--churn-profile],
    [--nics] and [--failover]. Their values come from the grids: the
    chaos matrix's profiles, the fleet's rack widths, on/off for the
    rest. *)

type chosen = (narrowing * (Exp_desc.cell -> bool)) list
(** The flags given, each with the filter of its given value. *)

val filter_for : chosen -> Exp_desc.t -> Exp_desc.cell -> bool
(** The cell filter the chosen flags put on an experiment: each flag
    narrows only its own experiment. *)

val refusal : chosen -> string -> string option
(** [refusal chosen name] is why the CLI refuses to run experiment [name]
    (or ["all"]) under the chosen flags, before any cell runs: a flag
    that narrows an experiment other than [name], or flags that leave
    their experiment no cell. [None] when the run may go ahead. *)

val closest : string -> (string * int) option
(** Closest registered name by edit distance (within distance 3) and its
    cell count, for "did you mean" suggestions on unknown names. *)
