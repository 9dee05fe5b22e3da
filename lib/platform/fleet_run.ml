(* The System-backed fleet: N full SmartNIC systems on the generic
   Taichi_fleet epoch substrate, under a region-wide VM-startup storm
   with NIC-level fault domains and cross-NIC tenant failover.

   Determinism layering (DESIGN.md §15): each NIC is a complete private
   universe — its own Sim, Machine, Rng (split from the root seed by NIC
   name) and counter registry — advanced epoch by epoch on the fleet's
   worker domains. Everything cross-NIC (the exchange, the fault plan,
   the failover manager's placement decisions) runs in the sequential
   controller phase between epochs, so the whole run is byte-identical
   at any fleet jobs count and any sweep --jobs count.

   Failover protocol: one reconciliation loop. The controller's desired
   state is every dynamic tenant that was admitted on a NIC when the
   plan crashed it, plus every drain-overrun pin the plan aimed at a NIC
   that has not landed yet; the observed state is the placement receipts.
   A [reconcile] pass at every epoch boundary and between settle steps
   places the difference with direct Lifecycle.admit calls in survivor
   order (governor not in backpressure first, then a pin's home NIC,
   then least admitted weight). A refusal is pushback, not an
   error: the next pass retries, and a failover refusal is counted as
   [fleet.failover.refused]. Failover off: the crashed NIC's tenants are
   recorded lost ([fleet.failover.lost] on the crashed NIC). *)

open Taichi_engine
open Taichi_hw
open Taichi_os
open Taichi_core
open Taichi_faults
open Taichi_fleet
open Taichi_workloads
open Taichi_controlplane

(* Boot tenants per NIC (the fleet victims) — same contract discipline as
   exp_churn, relaxed to the fleet guardrail. *)
let boot_specs =
  [ Tenant.spec ~weight:2 "alpha"; Tenant.spec "bravo" ]

type params = {
  nics : int;
  epochs : int;
  epoch_len : Time_ns.t;  (** simulated time per epoch *)
  density : float;  (** VM-startup storm intensity (exp_overload scale) *)
  governor : bool;
  failover : bool;
  faults : Nic_faults.spec;
  fleet_jobs : int;  (** worker domains inside the fleet *)
}

let default_params =
  {
    nics = 8;
    epochs = 48;
    epoch_len = Time_ns.of_us_f 2500.;
    density = 4.0;
    governor = true;
    failover = true;
    faults = Nic_faults.quiet;
    fleet_jobs = 1;
  }

type receipt = {
  tenant : string;
  weight : int;
  from_nic : int;
  to_nic : int;
  at_epoch : int;
}

type nic_report = {
  nr_nic : int;
  nr_state : string;
  nr_p99_us : float;
  nr_guard_ok : bool;
  nr_packets : int;
  nr_vms : int;  (** VM startups completed on this NIC *)
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
  r_attainment : float;  (** surviving NICs holding the DP p99 guardrail *)
  r_survivors : int;
  r_committed : receipt list;  (** committed tenants on NICs at crash time *)
  r_replaced : receipt list;
  r_lost : receipt list;  (** failover off: tenants that died with the NIC *)
  r_refused : int;  (** failover admission pushbacks, fleet-wide *)
  r_forced_drains : int;
  r_overruns_admitted : int;
  r_fingerprint : string;
}

(* Per-NIC universe handed to the generic fleet as its 'nic. The mutable
   refs are NIC-local: written only by this NIC's worker domain or by the
   sequential controller (never both within a phase), which the
   Domain.join barrier between phases makes race-free. *)
type env = {
  idx : int;
  sys : System.t;
  ectx : Run_ctx.t;  (** per-NIC experiment label, shared sink *)
  vm_rng : Rng.t;
  vm_params : Vm_lifecycle.params;
  locks : Task.spinlock list;
  recorder : Taichi_metrics.Recorder.t;
  burst_rng : Rng.t;
  mutable rpc : env Rpc.t option;
  mutable vm_count : int;
  mutable carry : float;  (** fractional storm arrivals carried over *)
  mutable tenants : (string * int) list;  (** admitted dynamic tenants *)
}

let counters_of env = Machine.counters (System.machine env.sys)

let emit env fmt =
  Printf.ksprintf
    (fun msg ->
      let machine = System.machine env.sys in
      Trace.emit (Machine.trace machine)
        ~time:(Sim.now (System.sim env.sys))
        ~category:Trace.Cat.fleet msg)
    fmt

(* --- per-NIC construction ------------------------------------------------ *)

let make_config p =
  let c = Config.no_hw_probe Config.default in
  let c = Config.with_tenants c boot_specs in
  let c = if p.governor then Config.with_overload c else c in
  Config.with_churn c

let dyn_name ~nic n = Printf.sprintf "dyn-n%d-%d" nic n

let spawn_tenant_work env = Exp_common.spawn_synth env.sys ~stream:"fleet-"

let make_env ~ctx ~seed ~nic_idx p =
  let nic_seed =
    (* Per-NIC universes decorrelate through the root RNG's named split;
       the int folds the stream down to a System seed. *)
    Rng.int (Rng.split (Rng.create ~seed) (Printf.sprintf "nic%d" nic_idx))
      max_int
  in
  let label =
    Printf.sprintf "%s.nic%02d" (Run_ctx.experiment ctx) nic_idx
  in
  let ectx = Run_ctx.with_experiment ctx label in
  let sys =
    System.create ~ctx:ectx ~seed:nic_seed (Policy.Taichi (make_config p))
  in
  System.warmup sys;
  let rng = System.rng sys in
  let vm_rng = Rng.split rng "fleet-storm" in
  let vm_params = Exp_common.vm_params sys ~rng:vm_rng ~density:p.density in
  {
    idx = nic_idx;
    sys;
    ectx;
    vm_rng;
    vm_params;
    locks =
      List.init 4 (fun i ->
          Task.spinlock (Printf.sprintf "fleet-dev-%d-%d" nic_idx i));
    recorder = Taichi_metrics.Recorder.create "vm.startup";
    burst_rng = Rng.split rng "fleet-burst";
    rpc = None;
    vm_count = 0;
    carry = 0.0;
    tenants = [];
  }

(* --- workload ------------------------------------------------------------- *)

(* One epoch's slice of the region-wide VM-startup storm: the diurnal ×
   flash-crowd factor modulates the per-epoch arrival budget; fractional
   arrivals carry to the next epoch so the long-run rate matches the
   curve exactly. *)
let storm_epoch env ~epoch ~epochs ~epoch_len ~density ~crowds =
  let phase = float_of_int epoch /. float_of_int (max 1 epochs) in
  let factor = Production_trace.load_factor ~crowds ~phase () in
  let budget = env.carry +. (density /. 4.0 *. factor) in
  let count = int_of_float budget in
  env.carry <- budget -. float_of_int count;
  if count > 0 then begin
    let sim = System.sim env.sys in
    let gap = epoch_len / (count + 1) in
    for i = 1 to count do
      env.vm_count <- env.vm_count + 1;
      let task =
        Vm_lifecycle.startup_task ~sim ~rng:env.vm_rng ~params:env.vm_params
          ~locks:env.locks ~affinity:[]
          ~name:(Printf.sprintf "vm-n%d-%d" env.idx env.vm_count)
          ~recorder:env.recorder ()
      in
      ignore
        (Sim.after sim (gap * i) (fun () ->
             System.spawn_cp ~cls:Overload.Standard env.sys task))
    done
  end

(* A browned NIC is slow, not dead: every epoch it eats an extra burst of
   background packets, which is what drags its DP tail. *)
let brownout_load env = Exp_common.dp_burst env.sys env.burst_rng 384

(* The RPC ping the NICs exchange every epoch: the server side answers
   and absorbs a small DP burst on behalf of the caller — the cross-NIC
   coupling that makes fabric loss observable in the data plane. *)
let serve_ping env ~src:_ body =
  Exp_common.dp_burst env.sys env.burst_rng 24;
  Some ("ack:" ^ body)

(* --- failover ------------------------------------------------------------- *)

(* Admitted dynamic weight currently placed on a NIC — the spread key. *)
let placed_weight env =
  List.fold_left (fun acc (_, w) -> acc + w) 0 env.tenants

(* Backpressured survivors rank behind free ones at any weight. Among
   equals, [home] goes first: the plan aims a drain-overrun pin at one
   NIC, but a backpressured home must not hold it while a free survivor
   could take it. A crashed NIC's tenants have no live home. *)
let survivor_score fleet ~home i =
  let env = Fleet.nic fleet i in
  (System.cp_backpressure env.sys, i <> home, placed_weight env, i)

let placement_order fleet ~home =
  let score = survivor_score fleet ~home in
  List.map (Fleet.nic fleet)
    (List.sort (fun a b -> compare (score a) (score b)) (Fleet.survivors fleet))

(* Admit [spec] on the first NIC of [order] that accepts it. The order
   ranks backpressured survivors last, so the first backpressure refusal
   ends the attempt: every NIC after it is backpressured too. The next
   reconcile pass tries again. *)
let rec admit_first ~refused spec = function
  | [] -> None
  | env :: rest -> (
      match Lifecycle.admit (Exp_common.lifecycle_of env.sys) spec with
      | Ok id -> Some (env, id)
      | Error r ->
          refused env;
          if r = Lifecycle.Backpressure then None
          else admit_first ~refused spec rest)

(* Drain-window overrun: hand the freshly admitted pin work sized far
   past the drain window and retire it under that work — the graceful
   poll cannot win, the watchdog escalation must (exp_churn's overrun
   driver, aimed by the fleet plan). The pin may land on a survivor the
   plan crashes at the next epoch boundary, so the escalation must finish
   within one epoch: retire delay + drain_window (0.2 + 2 ms) < epoch_len
   (2.5 ms). *)
let pin_overrun env id =
  emit env "overrun pinned tenant_id=%d" id;
  spawn_tenant_work env ~tenant:id ~count:1 ~work:(Time_ns.ms 8) ~tag:"ovr";
  ignore
    (Sim.after (System.sim env.sys) (Time_ns.us 200) (fun () ->
         Lifecycle.retire (Exp_common.lifecycle_of env.sys) ~tenant:id))

(* --- the run -------------------------------------------------------------- *)

let run ?(ctx = Run_ctx.default) ~seed p =
  if p.nics < 2 then invalid_arg "Fleet_run.run: need at least 2 NICs";
  let root = Rng.create ~seed in
  let crowds = Production_trace.flash_crowds (Rng.split root "crowds") ~n:2 in
  let plan =
    Nic_faults.plan ~rng:(Rng.split root "nic-faults") ~nics:p.nics
      ~epochs:p.epochs p.faults
  in
  let envs =
    Array.init p.nics (fun i -> make_env ~ctx ~seed ~nic_idx:i p)
  in
  let fleet =
    Fleet.create ~nics:envs
      ~counters:(Array.map counters_of envs)
      ~emit:(fun ~nic msg -> emit envs.(nic) "%s" msg)
      ()
  in
  Array.iter
    (fun env ->
      let rpc =
        Rpc.create ~timeout:2 ~retry_base:1 ~retry_cap:4 ~max_attempts:3
          fleet ~nic:env.idx
      in
      Rpc.register rpc ~tag:"ping" (fun ~src body -> serve_ping env ~src body);
      env.rpc <- Some rpc)
    envs;
  (* Commit one dynamic tenant per NIC before the storm: the population
     the failover oracle protects. Weights 1..3 give the spread policy
     something to balance. *)
  Array.iter
    (fun env ->
      let weight = 1 + (env.idx mod 3) in
      let name = dyn_name ~nic:env.idx 0 in
      let lc = Exp_common.lifecycle_of env.sys in
      match Lifecycle.admit lc (Tenant.spec ~weight name) with
      | Ok id ->
          env.tenants <- [ (name, weight) ];
          spawn_tenant_work env ~tenant:id ~count:2 ~work:(Time_ns.ms 1)
            ~tag:"seed"
      | Error _ ->
          failwith
            (Printf.sprintf "fleet_run: NIC %d refused its boot-time tenant"
               env.idx))
    envs;
  (* Steady background per NIC for the whole storm window (the same mix
     exp_overload's guardrail contrast was proven on). *)
  let horizon = p.epochs * p.epoch_len in
  Array.iter
    (fun env ->
      let sim = System.sim env.sys in
      let until = Sim.now sim + horizon in
      Exp_common.start_bg_dp env.sys ~target:0.25 ~storage_target:0.12 ~until;
      Exp_common.start_bg_cp env.sys;
      Exp_common.start_cp_churn env.sys ~period:(Time_ns.us 300)
        ~work:(Time_ns.us 200) ~until)
    envs;
  (* Controller state (sequential phase only). The desired state is
     [committed] (placed only with failover on) and [pins]; [receipts]
     is what has been observed placed. *)
  let committed = ref [] in  (* newest first *)
  let receipts = ref [] in  (* newest first *)
  let pins = ref [] in  (* home NICs of unlanded overrun pins, oldest first *)
  let lost = ref [] in
  let crashed = ref [] in
  let pinned = ref 0 in
  let placed c =
    List.exists
      (fun r -> r.tenant = c.tenant && r.from_nic = c.from_nic)
      !receipts
  in
  let unplaced () =
    !pins <> []
    || (p.failover && List.exists (fun c -> not (placed c)) !committed)
  in
  let reconcile ~epoch =
    if p.failover then
      List.iter
        (fun c ->
          if not (placed c) then
            match
              admit_first
                ~refused:(fun env ->
                  Counters.incr (counters_of env) "fleet.failover.refused")
                (Tenant.spec ~weight:c.weight c.tenant)
                (placement_order fleet ~home:c.from_nic)
            with
            | None -> ()
            | Some (env, id) ->
                Counters.incr (counters_of env) "fleet.failover.replaced";
                emit env "failover placed tenant=%s from=%d to=%d tenant_id=%d"
                  c.tenant c.from_nic env.idx id;
                env.tenants <- env.tenants @ [ (c.tenant, c.weight) ];
                receipts :=
                  { c with to_nic = env.idx; at_epoch = epoch } :: !receipts;
                spawn_tenant_work env ~tenant:id ~count:2 ~work:(Time_ns.ms 1)
                  ~tag:"fo")
        (List.rev !committed);
    pins :=
      List.filter
        (fun home ->
          match
            admit_first ~refused:ignore
              (Tenant.spec (Printf.sprintf "ovr-n%d" home))
              (placement_order fleet ~home)
          with
          | None -> true
          | Some (env, id) ->
              pin_overrun env id;
              incr pinned;
              false)
        !pins
  in
  let deliver ~nic m =
    let env = envs.(nic) in
    ignore (Rpc.deliver (Option.get env.rpc) m : bool)
  in
  let advance ~nic ~epoch =
    let env = envs.(nic) in
    Rpc.tick (Option.get env.rpc) ~epoch;
    if Fleet.state fleet nic = Fleet.Browned then brownout_load env;
    storm_epoch env ~epoch ~epochs:p.epochs ~epoch_len:p.epoch_len
      ~density:p.density ~crowds;
    (* One ping per epoch, round-robin across the rack: nic+1+k mod n
       with k in [0, n-2] never lands back on the caller. *)
    let peer = (nic + 1 + (epoch mod (p.nics - 1))) mod p.nics in
    Rpc.call (Option.get env.rpc) ~dst:peer ~tag:"ping"
      (Printf.sprintf "e%d" epoch)
      ~on_reply:(fun _ -> ())
      ~on_abandon:(fun () -> ());
    System.advance env.sys p.epoch_len
  in
  let control ~epoch =
    List.iter
      (fun (e, event) ->
        if e = epoch then
          match event with
          | Nic_faults.Crash i when Fleet.alive fleet i ->
              let env = envs.(i) in
              (* Heaviest first, so the spread policy sees the big lanes
                 early; ties keep admission order. *)
              let victims =
                List.map
                  (fun (tenant, weight) ->
                    {
                      tenant;
                      weight;
                      from_nic = i;
                      to_nic = -1;
                      at_epoch = epoch;
                    })
                  (List.stable_sort (fun (_, a) (_, b) -> compare b a)
                     env.tenants)
              in
              Fleet.crash fleet i;
              crashed := i :: !crashed;
              committed := List.rev_append victims !committed;
              if not p.failover then begin
                List.iter
                  (fun _ ->
                    Counters.incr (counters_of env) "fleet.failover.lost")
                  victims;
                lost := List.rev_append victims !lost
              end
          | Nic_faults.Crash _ -> ()
          | Nic_faults.Brownout_start i -> Fleet.brownout fleet i
          | Nic_faults.Brownout_end i -> Fleet.recover fleet i
          | Nic_faults.Partition_start groups ->
              Fleet.partition fleet ~groups
          | Nic_faults.Partition_end -> Fleet.heal fleet
          | Nic_faults.Drain_overrun i ->
              if Fleet.alive fleet i then pins := !pins @ [ i ])
      plan;
    reconcile ~epoch
  in
  Fleet.run ~jobs:p.fleet_jobs ~control fleet ~epochs:p.epochs ~deliver
    ~advance;
  (* Settle, storm- and fault-free: survivors advance in 5 ms steps — at
     least 4, for drains and the governor's re-arm to run out, and at most
     14 while anything is still unplaced. A reconcile pass runs before
     every step but the first (the last epoch's pass has just run), so
     each placement gets at least one step of load before the audit. *)
  let rec settle step =
    if step < 4 || (step < 14 && unplaced ()) then begin
      if step > 0 then reconcile ~epoch:p.epochs;
      List.iter
        (fun i -> System.advance envs.(i).sys (Time_ns.ms 5))
        (Fleet.survivors fleet);
      settle (step + 1)
    end
  in
  settle 0;
  (* A pin that landed in a late settle step still needs its retire (200
     us after the pin) and the watchdog escalation to run out. *)
  if p.faults.Nic_faults.overruns > 0 then
    List.iter
      (fun i -> System.advance envs.(i).sys (Time_ns.ms 15))
      (Fleet.survivors fleet);
  (* Harvest in NIC order: audit survivors (a crashed NIC froze
     mid-flight — its invariants are allowed to be mid-transition), then
     export every NIC's run under its per-NIC label. *)
  let survivors = Fleet.survivors fleet in
  Array.iter
    (fun env ->
      if List.mem env.idx survivors then
        Exp_common.check_audit ~ctx:env.ectx ~seed env.sys;
      let sim = System.sim env.sys in
      Run_ctx.record_engine_events env.ectx
        ~scheduled:(Sim.events_scheduled sim)
        ~processed:(Sim.events_processed sim);
      if Run_ctx.tracing env.ectx then
        Exp_common.harvest_run ~ctx:env.ectx ~seed env.sys)
    envs;
  let nic_reports =
    Array.to_list
      (Array.map
         (fun env ->
           let get = Counters.get (counters_of env) in
           let hist = System.dp_latency_hist env.sys in
           let p99 = Exp_common.p99_us hist in
           {
             nr_nic = env.idx;
             nr_state = Fleet.state_label (Fleet.state fleet env.idx);
             nr_p99_us = p99;
             nr_guard_ok = p99 <= float_of_int Exp_common.guardrail /. 1e3;
             nr_packets = Histogram.count hist;
             nr_vms = Taichi_metrics.Recorder.count env.recorder;
             nr_admitted = get "churn.admitted";
             nr_rpc_sent = get "fleet.rpc.sent";
             nr_rpc_completed = get "fleet.rpc.completed";
             nr_rpc_retries = get "fleet.rpc.retries";
             nr_rpc_timeouts = get "fleet.rpc.timeouts";
             nr_rpc_abandoned = get "fleet.rpc.abandoned";
             nr_exch_sent = get "fleet.exchange.sent";
             nr_exch_delivered = get "fleet.exchange.delivered";
             nr_exch_lost =
               get "fleet.exchange.lost_crash"
               + get "fleet.exchange.lost_down"
               + get "fleet.exchange.lost_partition";
           })
         envs)
  in
  let holding =
    List.filter
      (fun r -> r.nr_state <> "crashed" && r.nr_guard_ok)
      nic_reports
  in
  let n_survivors = List.length survivors in
  let sum_counter name =
    Array.fold_left (fun acc env -> acc + Counters.get (counters_of env) name)
      0 envs
  in
  {
    r_nics = nic_reports;
    r_crashed = List.rev !crashed;
    r_attainment =
      (if n_survivors = 0 then 0.0
       else float_of_int (List.length holding) /. float_of_int n_survivors);
    r_survivors = n_survivors;
    r_committed = List.rev !committed;
    r_replaced = List.rev !receipts;
    r_lost = List.rev !lost;
    r_refused = sum_counter "fleet.failover.refused";
    r_forced_drains = sum_counter "churn.drain_forced";
    r_overruns_admitted = !pinned;
    r_fingerprint =
      Exp_common.fingerprint
        (List.map
           (fun env -> (Printf.sprintf "nic%d:" env.idx, env.sys))
           (Array.to_list envs))
        (List.map
           (fun r -> Printf.sprintf "p99.%d=%.3f" r.nr_nic r.nr_p99_us)
           nic_reports);
  }
