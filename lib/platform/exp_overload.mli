(** The [overload] experiment: VM-startup storm x density sweep x
    overload governor on/off.

    Every cell runs the same storm mix — heavy background DP traffic, the
    Critical monitor background, Deferrable control-plane churn and a
    Standard-class VM-startup storm scaled by density — under the
    no-hardware-probe Tai Chi ablation (so CP placement pressure actually
    reaches the data-plane tail), with and without [Config.overload].
    The determinism repeat is an explicit extra cell ([repeat-d4-on])
    that re-measures the hottest governed point.

    Oracles (run in the descriptor's summarize step), beyond the
    machine-wide Core_state audit:

    - the governor-off baseline breaches the DP p99 guardrail at the top
      density while governor-on holds it;
    - only the [Deferrable] class is ever shed;
    - the ladder performs a bounded number of transitions (no flapping)
      and is back at [Normal] after the post-storm quiet tail;
    - the repeat cell reproduces a bit-identical measurement digest. *)

val overload : Exp_desc.t
(** One cell per (density x governor) grid point plus the determinism
    repeat cell. *)

val governor_filter : bool -> Exp_desc.cell -> bool
(** Cell filter keeping the cells with the governor on ([true]) or off
    (the CLI's [--overload]); the repeat cell counts as governed. *)
