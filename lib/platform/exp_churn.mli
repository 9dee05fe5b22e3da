(** Tenant churn under fire: the live admit/retire lifecycle as an
    experiment. Cells cover steady arrival waves with graceful
    departures, a departure under CP/DP saturation (forcing the drain
    watchdog), rapid admit/retire flapping, pool-exhaustion refusal with
    capped-backoff retry across a departure, and a chaos-under-churn run
    on the {!Taichi_faults.Injector.churn} fault profile. Oracles check
    that every drain completes, refusals are retried (never abandoned),
    victim tenants keep their DP p99 contracts, resource pools are whole
    after every retirement, and a repeated cell fingerprints
    identically. The zero-orphan drain audit runs via the standard
    [with_system] audit hook. *)

val churn : Exp_desc.t

val profile_names : string list
(** The churn profiles, by name: the values [--churn-profile] accepts. *)

val profile_filter : string -> Exp_desc.cell -> bool
(** [profile_filter profile cell] is the [--churn-profile] CLI filter:
    ["steady"], ["flap"] (which also keeps the determinism repeat cell)
    or ["chaos"]. *)
