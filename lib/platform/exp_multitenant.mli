(** Multi-tenant scheduling experiments: tenant count x weight ratio x
    aggressor profile.

    Oracles: weighted vCPU grant shares converge to configured weights
    within 5% under saturation; an idle tenant's capacity is
    redistributed (work conservation); and a CP storm or DP burst from
    the aggressor tenant keeps every victim's DP p99 inside its
    contracted bound with all governor activity attributed to the
    aggressor's ladder only. *)

val multitenant : Exp_desc.t

val aggressor_filter : bool -> Exp_desc.cell -> bool
(** [aggressor_filter aggressor] is the cell filter behind the CLI's
    [--aggressor] narrowing: [true] keeps the storm/burst (and
    determinism-repeat) cells, [false] the saturation/idle cells. *)
