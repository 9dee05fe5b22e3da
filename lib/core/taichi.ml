open Taichi_engine
open Taichi_hw
open Taichi_os
open Taichi_virt
open Taichi_accel
open Taichi_dataplane

type t = {
  config : Config.t;
  machine : Machine.t;
  kernel : Kernel.t;
  table : State_table.t;
  sw : Sw_probe.t;
  softirq : Softirq.t;
  sched : Vcpu_sched.t;
  orch : Ipi_orchestrator.t;
  probe : Hw_probe.t;
  recovery : Recovery.t;
  overload : Overload.t option;
  lifecycle : Lifecycle.t option;
  tenant_table : Tenant.table;
  vcpus : Vcpu.t list;
  cp_pcpus : int list;
}

(* State-table divergence detector: periodically compare the accelerator
   mirror against the authoritative state machine and force-resync any
   record that has been wrong for longer than the IPI latency (the bound
   the mirror invariant tolerates). Catches stalled and corrupted records
   that the subscription path can no longer fix — a frozen record drops
   the subscriber's writes, so only [State_table.force] repairs it. *)
let mirror_resync machine table recovery =
  let sim = Machine.sim machine in
  let cs = Machine.core_state machine in
  let ipi = (Machine.config machine).Machine.ipi_latency in
  for core = 0 to Machine.physical_cores machine - 1 do
    let expected =
      match Core_state.get cs ~core with
      | Core_state.Vcpu_running _ | Core_state.Switching Core_state.From_dp ->
          State_table.V_state
      | _ -> State_table.P_state
    in
    let diverged_for = Sim.now sim - Core_state.since cs ~core in
    if State_table.get table ~core <> expected && diverged_for > ipi then begin
      State_table.force table ~core expected;
      Recovery.note recovery ~cls:"mirror" ~action:"resync"
        ~latency:diverged_for
    end
  done

let rec mirror_resync_loop config machine table recovery =
  ignore
    (Sim.after (Machine.sim machine) config.Config.mirror_resync_period
       (fun () ->
         mirror_resync machine table recovery;
         mirror_resync_loop config machine table recovery))

let install ?(config = Config.default) ?tenants ~machine ~kernel ~pipeline
    ~dps ~cp_pcpus () =
  let cores = Machine.physical_cores machine in
  let table = State_table.create ~cores in
  (* The accelerator's P/V table is the eventually-consistent mirror of
     the authoritative per-core state machine: refreshed by subscription
     (synchronously, modelling the fast MMIO write that accompanies each
     transition) rather than written by scattered call sites. A core is
     V-state from the instant a switch away from the data plane begins —
     the hardware probe must evict a racing packet cleanly — until the
     moment an eviction back towards it starts. *)
  let cs = Machine.core_state machine in
  Core_state.subscribe cs (fun ev ->
      let mirror =
        match ev.Core_state.to_state with
        | Core_state.Vcpu_running _ | Core_state.Switching Core_state.From_dp
          ->
            State_table.V_state
        | _ -> State_table.P_state
      in
      let core = ev.Core_state.core in
      if State_table.get table ~core <> mirror then
        State_table.set table ~core mirror);
  let sw = Sw_probe.create ~machine config ~cores in
  let softirq = Softirq.create machine in
  let recovery = Recovery.create config machine in
  (* One tenant table per system: the platform passes its shared mutable
     instance (mandatory under churn, where admissions grow it mid-run);
     standalone installs derive a static one from the config. The same
     instance threads into the scheduler and the governor so lane ids
     always line up. *)
  let tenant_table =
    match tenants with Some tbl -> tbl | None -> Config.tenant_table config
  in
  let sched =
    Vcpu_sched.create ~tenants:tenant_table config machine kernel softirq sw
      table recovery
  in
  List.iter (fun dp -> Vcpu_sched.register_dp sched dp) dps;
  Vcpu_sched.set_cp_pcpus sched cp_pcpus;
  let orch = Ipi_orchestrator.install config machine kernel sched recovery in
  (* Under churn the pool's spare vCPUs are registered (and booted) along
     with the configured ones; they stay unassigned (tenant -1) and are
     never scheduled until the lifecycle binds them to an admitted
     tenant. *)
  let spare_count = if config.Config.churn then config.Config.spare_vcpus else 0 in
  let all_vcpus =
    Ipi_orchestrator.register_vcpus orch ~first_kcpu:cores
      ~count:(config.Config.n_vcpus + spare_count)
  in
  let vcpus, spares =
    List.partition (fun v -> v.Vcpu.vid < config.Config.n_vcpus) all_vcpus
  in
  let probe = Hw_probe.install config machine table pipeline sched in
  if Tenant.is_multi tenant_table then begin
    (* Tenant identity becomes load-bearing only under an explicit
       multi-tenant table: vCPUs are dealt round-robin across tenants
       (vid mod T — deterministic, independent of registration order),
       each inheriting its tenant's admission-class rank for the weighted
       queue's second stage, and every DP service mirrors its counters
       into the owning tenant's namespace. The implicit single tenant
       changes nothing, keeping pre-existing runs byte-identical. *)
    List.iter
      (fun v ->
        let tid = v.Vcpu.vid mod Tenant.count tenant_table in
        v.Vcpu.tenant <- tid;
        v.Vcpu.cls_rank <-
          Tenant.cls_rank (Tenant.get tenant_table tid).Tenant.cls)
      vcpus;
    List.iter (fun dp -> Dp_service.set_tag_tenant dp true) dps
  end;
  List.iter (fun v -> v.Vcpu.tenant <- -1) spares;
  if config.Config.resilience then
    mirror_resync_loop config machine table recovery;
  let overload =
    if not config.Config.overload then None
    else begin
      (* The governor watches the DP cores' dwell (occupancy), the vCPU
         host CPUs' runqueues (CP backlog) and a live per-packet latency
         feed; it throttles the placement path through the scheduler's
         gate, and a ladder relax immediately retries the work the gate
         held back. *)
      let ov = Overload.create ~tenants:tenant_table config machine kernel recovery in
      List.iter
        (fun dp ->
          Overload.watch_dp ov ~tenant:(Dp_service.tenant dp)
            ~core:(Dp_service.core dp) ();
          (* The sink reads the owner at packet-completion time: a
             floating service re-homed by the churn lifecycle feeds the
             new owner's lane from the instant it changes hands. *)
          Dp_service.set_latency_sink dp
            (Some
               (fun lat ->
                 Overload.observe_latency ov ~tenant:(Dp_service.tenant dp)
                   lat)))
        dps;
      List.iter
        (fun v ->
          if v.Vcpu.tenant >= 0 then
            Overload.watch_kcpu ov ~tenant:v.Vcpu.tenant v.Vcpu.kcpu)
        all_vcpus;
      Vcpu_sched.set_place_gate sched (Some (Overload.place_allowed ov));
      Overload.on_transition ov (fun from to_ ->
          if Overload.rank to_ < Overload.rank from then
            Vcpu_sched.kick_runnable sched);
      Overload.start ov;
      Some ov
    end
  in
  let lifecycle =
    if not config.Config.churn then None
    else begin
      (* The floating services come off the END of the service list, so
         the boot tenants' primary rings (dealt from the front) never
         move. *)
      let n_dps = List.length dps in
      let floats =
        List.filteri
          (fun i _ -> i >= n_dps - config.Config.float_services)
          dps
      in
      Some
        (Lifecycle.create ~config ~machine ~kernel ~sched ~overload
           ~tenants:tenant_table ~spares ~floats ~cp_pcpus ~dps ~recovery)
    end
  in
  {
    config;
    machine;
    kernel;
    table;
    sw;
    softirq;
    sched;
    orch;
    probe;
    recovery;
    overload;
    lifecycle;
    tenant_table;
    vcpus = all_vcpus;
    cp_pcpus;
  }

let config t = t.config
let machine t = t.machine
let kernel t = t.kernel
let scheduler t = t.sched
let orchestrator t = t.orch
let hw_probe t = t.probe
let softirq t = t.softirq
let state_table t = t.table
let recovery t = t.recovery
let overload t = t.overload
let lifecycle t = t.lifecycle
let vcpus t = t.vcpus
let tenants t = t.tenant_table

(* Pooled spares are excluded: their kcpus never run until the lifecycle
   assigns them, so a task affine to one could wait forever. *)
let cp_cpu_ids t =
  t.cp_pcpus
  @ List.filter_map
      (fun v -> if v.Vcpu.tenant >= 0 then Some v.Vcpu.kcpu else None)
      t.vcpus

let ready t = Ipi_orchestrator.online_vcpus t.orch = List.length t.vcpus

let total_vm_exits t =
  List.fold_left (fun acc v -> acc + Vcpu.total_exits v) 0 t.vcpus

let pp_summary fmt t =
  let s = Vcpu_sched.stats t.sched in
  let o = Ipi_orchestrator.stats t.orch in
  Format.fprintf fmt
    "taichi: vcpus=%d placements=%d probe_evictions=%d pending_evictions=%d \
     halts=%d rotations=%d rescues=%d borrows=%d unsafe=%d vm_exits=%d \
     probe_triggers=%d ipi[routed=%d posted=%d wakeups=%d reissued=%d]"
    (List.length t.vcpus) s.Vcpu_sched.placements s.Vcpu_sched.probe_evictions
    s.Vcpu_sched.pending_evictions s.Vcpu_sched.halt_exits
    s.Vcpu_sched.rotations s.Vcpu_sched.lock_rescues s.Vcpu_sched.borrows
    s.Vcpu_sched.unsafe_suspensions (total_vm_exits t)
    (Hw_probe.triggers t.probe) o.Ipi_orchestrator.routed_to_vcpu
    o.Ipi_orchestrator.posted o.Ipi_orchestrator.wakeups
    o.Ipi_orchestrator.reissued
