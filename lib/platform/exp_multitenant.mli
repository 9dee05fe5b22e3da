(** Multi-tenant scheduling experiments: tenant count x weight ratio x
    aggressor profile.

    Oracles: weighted vCPU grant shares converge to configured weights
    within 5% under saturation; an idle tenant's capacity is
    redistributed (work conservation); and a CP storm or DP burst from
    the aggressor tenant keeps every victim's DP p99 inside its
    contracted bound with all governor activity attributed to the
    aggressor's ladder only. *)

val multitenant : Exp_desc.t

val aggressor_filter : string -> Exp_desc.cell -> bool
(** [aggressor_filter setting] is the cell filter behind the CLI's
    [--aggressor] narrowing: ["on"] keeps the
    storm/burst (and determinism-repeat) cells, ["off"] the
    saturation/idle cells. Raises on any other setting. *)
