(** The System-backed fleet harness: N full SmartNIC systems on the
    {!Taichi_fleet} epoch substrate, under a region-wide VM-startup
    storm (diurnal × flash-crowd modulated, {!Taichi_workloads.Production_trace}),
    with NIC-level fault domains ({!Taichi_faults.Nic_faults}) and
    cross-NIC tenant failover.

    Failover is one reconciliation loop: at every epoch boundary and
    between settle steps, the controller admits each tenant committed
    on a crashed NIC that has no placement receipt yet, and each pending
    drain-overrun pin, on survivors through the refusable
    {!Taichi_core.Lifecycle.admit}; a refusal waits for the next pass.

    Everything cross-NIC — the exchange, the fault plan, the failover
    placement — runs in the sequential controller phase between epochs;
    each NIC is a private universe advanced on the fleet's worker
    domains, so a run is byte-identical at any jobs count. *)

open Taichi_engine
open Taichi_faults

type params = {
  nics : int;
  epochs : int;
  epoch_len : Time_ns.t;
  density : float;  (** VM-startup storm intensity (exp_overload scale) *)
  governor : bool;
  failover : bool;
  faults : Nic_faults.spec;
  fleet_jobs : int;  (** worker domains inside the fleet *)
}

val default_params : params
(** 8 NICs × 48 × 2.5 ms epochs, density 4, governor and failover on, no
    fleet faults, 1 worker domain. *)

type receipt = {
  tenant : string;
  weight : int;
  from_nic : int;
  to_nic : int;  (** -1 in committed/lost records *)
  at_epoch : int;
}

type nic_report = {
  nr_nic : int;
  nr_state : string;
  nr_p99_us : float;
  nr_guard_ok : bool;
  nr_packets : int;
  nr_vms : int;
  nr_admitted : int;
  nr_rpc_sent : int;
  nr_rpc_completed : int;
  nr_rpc_retries : int;
  nr_rpc_timeouts : int;
  nr_rpc_abandoned : int;
  nr_exch_sent : int;
  nr_exch_delivered : int;
  nr_exch_lost : int;
}

type report = {
  r_nics : nic_report list;
  r_crashed : int list;
  r_attainment : float;
      (** fraction of surviving NICs holding the DP p99 guardrail *)
  r_survivors : int;
  r_committed : receipt list;
      (** dynamic tenants committed on a NIC at its crash *)
  r_replaced : receipt list;
  r_lost : receipt list;  (** failover off: died with their NIC *)
  r_refused : int;  (** failover admission pushbacks, fleet-wide *)
  r_forced_drains : int;
  r_overruns_admitted : int;
  r_fingerprint : string;
}

val run : ?ctx:Run_ctx.t -> seed:int -> params -> report
(** One fleet run: build and warm N NICs, commit one dynamic tenant per
    NIC, drive the storm through the epoch loop with the fault plan and
    failover, settle, audit survivors and (when tracing) harvest every
    NIC's export under a ["<experiment>.nic<NN>"] label. *)
