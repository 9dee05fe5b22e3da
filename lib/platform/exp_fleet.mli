(** The [fleet] experiment: a rack of SmartNICs x NIC fault domains x
    cross-NIC tenant failover.

    Every cell runs a region-wide VM-startup storm (diurnal x
    flash-crowd modulated) across 8-16 full systems on the
    {!Taichi_fleet} epoch substrate, with a cross-NIC RPC ping mesh and
    a deterministic fault plan ({!Taichi_faults.Nic_faults}): mid-storm
    NIC crashes, a brownout, a fabric partition and a drain-window
    overrun in the 16-NIC storm cell. The grid contrasts governor
    on/off and failover on/off; a quiet faultless cell baselines the
    exchange/RPC accounting and the explicit repeat cell re-measures
    the primary point for bit-identity.

    Oracles (run in the descriptor's summarize step), beyond the
    per-survivor Core_state audit:

    - zero committed-tenant loss with failover on: every dynamic tenant
      committed on a crashed NIC is re-placed on a survivor;
    - with failover off, the crash demonstrably costs tenants (and
      nothing is re-placed);
    - failover receipts land only on crashed NICs' own committed
      tenants;
    - fleet SLO attainment with the governor on is never below
      governor off on the matched 8-NIC crash cells;
    - the exchange books balance (delivered + lost <= sent) and a
      faultless fabric loses nothing and abandons no RPC;
    - the repeat cell reproduces a bit-identical fleet fingerprint. *)

val fleet : Exp_desc.t
(** Six cells: 8-NIC crash x governor on/off x failover on/off (three
    points), the faultless integrity cell, the 16-NIC storm cell, and
    the determinism repeat. *)

val nic_counts : int list
(** The rack widths the grid runs: the values [--nics] accepts. *)

val nics_filter : int -> Exp_desc.cell -> bool
(** Cell filter keeping the cells whose fleet is [n] NICs wide (the
    CLI's [--nics]); the repeat cell rides with its 8-NIC base cell. *)

val failover_filter : bool -> Exp_desc.cell -> bool
(** Cell filter keeping the cells with failover on ([true]) or off (the
    CLI's [--failover]); the repeat cell rides with its base cell. *)
