open Taichi_engine
open Taichi_hw
open Taichi_os
open Taichi_accel
open Taichi_core
open Taichi_dataplane
open Taichi_workloads

type layout = { n_net : int; n_storage : int; n_cp : int }

let default_layout = { n_net = 5; n_storage = 3; n_cp = 4 }

type t = {
  sim : Sim.t;
  machine : Machine.t;
  kernel : Kernel.t;
  pipeline : Pipeline.t;
  policy : Policy.t;
  rng : Rng.t;
  client : Client.t;
  taichi : Taichi.t option;
  net_cores : int list;
  storage_cores : int list;
  cp_cores : int list;
  net_services : Dp_service.t list;
  storage_services : Dp_service.t list;
  tenant_table : Tenant.table;
      (* THE tenant registry for this system — one shared mutable
         instance threaded through Taichi.install, so churn-time
         admissions are visible to every layer and to the export *)
  mutable epoch : Time_ns.t;
  h_spawn_refused : Counters.handle;
  l_spawn_refused : Counters.lane;
}

let range lo n = List.init n (fun i -> lo + i)

let create ?(seed = 42) ?(layout = default_layout) ?prepare
    ?(ctx = Run_ctx.default) policy =
  let sim = Sim.create () in
  let total = layout.n_net + layout.n_storage + layout.n_cp in
  let machine =
    Machine.create ~config:{ Machine.default_config with physical_cores = total } sim
  in
  (* The prepare hook runs before the kernel or any scheduler exists, so a
     fault injector installed here already covers the vCPU hotplug boot
     IPIs issued during system assembly and warm-up. *)
  (match prepare with Some f -> f machine | None -> ());
  let kernel = Kernel.create machine in
  let pipeline = Pipeline.create sim in
  let rng = Rng.create ~seed in
  (* Infrastructure cores consumed by the policy (type-2 emulation + guest
     OS) come off the data-plane partitions, one per subsystem. *)
  let lost = Policy.dp_cores_lost policy in
  let lost_net = lost / 2 and lost_sto = lost - (lost / 2) in
  let n_net = layout.n_net - lost_net
  and n_storage = layout.n_storage - lost_sto in
  let net_cores = range 0 n_net in
  let storage_cores = range layout.n_net n_storage in
  let cp_base = layout.n_net + layout.n_storage in
  let cp_cores = range cp_base layout.n_cp in
  (* Every physical core is a kernel logical CPU; data-plane-owned cores
     are unavailable to the task scheduler. *)
  List.iter
    (fun id ->
      let available = id >= cp_base in
      let c = Kernel.add_physical_cpu kernel ~available ~id () in
      Kernel.set_speed_tax c (if available then Policy.cp_speed_tax policy else 0.0))
    (range 0 total);
  (* Dedicated CP cores are control-plane occupied from bring-up on the
     authoritative state machine; data-plane cores transition when their
     service starts, and cores lost to infrastructure stay [Offline]. *)
  List.iter
    (fun id ->
      Core_state.transition (Machine.core_state machine) ~core:id
        ~cause:Core_state.Hotplug Core_state.Cp_dedicated)
    cp_cores;
  (* Data-plane services. Under an explicit multi-tenant table each
     subsystem's services are dealt round-robin across tenants (position
     mod count — deterministic in the core layout), so every tenant owns
     rings on both subsystems when it has enough cores. The implicit
     single tenant leaves every service on tenant 0 as before. *)
  let tenant_table = Config.tenant_table (Policy.config policy) in
  let owner i =
    if Tenant.is_multi tenant_table then i mod Tenant.count tenant_table else 0
  in
  let dp_tax = Policy.dp_speed_tax policy in
  let make_net i core =
    let dp = Net_service.create ~tenant:(owner i) machine pipeline ~core in
    Dp_service.set_speed_tax dp dp_tax;
    dp
  in
  let make_sto i core =
    let dp = Storage_service.create ~tenant:(owner i) machine pipeline ~core in
    Dp_service.set_speed_tax dp dp_tax;
    dp
  in
  let net_services = List.mapi make_net net_cores in
  let storage_services = List.mapi make_sto storage_cores in
  let services = net_services @ storage_services in
  (* Ring-delivery notifications: each service owns its core, so a
     delivery looks its service up by core. *)
  let by_core = Array.make total None in
  List.iter (fun dp -> by_core.(Dp_service.core dp) <- Some dp) services;
  Pipeline.set_deliver_hook pipeline (fun ~core ->
      match by_core.(core) with
      | Some dp -> Dp_service.on_ring_activity dp
      | None -> ());
  (* Policy machinery. *)
  let taichi =
    match policy with
    | Policy.Taichi config | Policy.Taichi_vdp config ->
        Some
          (Taichi.install ~config ~tenants:tenant_table ~machine ~kernel
             ~pipeline ~dps:services ~cp_pcpus:cp_cores ())
    | Policy.Static_partition | Policy.Type2 -> None
    | Policy.Naive_coschedule | Policy.Uintr_coschedule | Policy.Dedicated_core
      ->
        (* Idle data-plane cores are lent to the kernel scheduler itself;
           packets must wait for any non-preemptible routine to finish.
           The variants differ in resume-notification cost (UINTR) and in
           the dedicated scheduler core already removed from the
           data-plane partition above. *)
        let switch_cost = Policy.reclaim_switch_cost policy in
        List.iter
          (fun dp ->
            let hooks = Dp_service.hooks dp in
            let core = Dp_service.core dp in
            hooks.Dp_service.idle_detected <-
              (fun dp ->
                if Dp_service.try_yield dp then
                  Kernel.lend kernel (Kernel.cpu kernel core));
            hooks.Dp_service.work_arrived_while_yielded <-
              (fun dp ->
                Kernel.reclaim kernel (Kernel.cpu kernel core)
                  ~on_granted:(fun () -> Dp_service.resume dp ~switch_cost)))
          services;
        None
  in
  let client = Client.create sim pipeline ~services in
  List.iter Dp_service.start services;
  (* Tracing switches on only once assembly is done: boot-time service
     starts are not part of the measured run, and keeping the cutover
     here preserves export compatibility with the pre-Run_ctx layout. *)
  if Run_ctx.tracing ctx then Trace.set_enabled (Machine.trace machine) true;
  {
    sim;
    machine;
    kernel;
    pipeline;
    policy;
    rng;
    client;
    taichi;
    net_cores;
    storage_cores;
    cp_cores;
    net_services;
    storage_services;
    tenant_table;
    epoch = 0;
    h_spawn_refused = Counters.handle (Machine.counters machine) "churn.spawn_refused";
    l_spawn_refused = Counters.lane (Machine.counters machine) "churn.spawn_refused";
  }

let sim t = t.sim
let machine t = t.machine
let kernel t = t.kernel
let pipeline t = t.pipeline
let policy t = t.policy
let rng t = t.rng
let client t = t.client
let taichi t = t.taichi
let net_cores t = t.net_cores
let storage_cores t = t.storage_cores
let dp_cores t = t.net_cores @ t.storage_cores
let cp_cores t = t.cp_cores

let cp_affinity t =
  match t.policy with
  | Policy.Naive_coschedule | Policy.Uintr_coschedule | Policy.Dedicated_core ->
      dp_cores t @ t.cp_cores
  | Policy.Static_partition | Policy.Type2 -> t.cp_cores
  | Policy.Taichi _ | Policy.Taichi_vdp _ -> (
      match t.taichi with
      | Some tc -> Taichi.cp_cpu_ids tc
      | None -> t.cp_cores)

let net_services t = t.net_services
let services t = t.net_services @ t.storage_services

let overload t =
  match t.taichi with Some tc -> Taichi.overload tc | None -> None

let cp_backpressure t =
  match overload t with Some ov -> Overload.backpressure ov | None -> false

let tenants t = t.tenant_table

let lifecycle t =
  match t.taichi with Some tc -> Taichi.lifecycle tc | None -> None

(* A tenant's CP CPU set: the shared dedicated CP pCPUs plus only its own
   vCPUs, so one tenant's control-plane storm queues behind its own
   weighted share instead of every vCPU on the machine. Falls back to the
   policy-wide set under the implicit single tenant (where the two
   coincide) or when the policy runs no vCPUs at all. *)
let cp_affinity_for t tenant =
  match t.taichi with
  | Some tc when Tenant.is_multi (tenants t) ->
      t.cp_cores
      @ List.filter_map
          (fun v ->
            if v.Taichi_virt.Vcpu.tenant = tenant then
              Some v.Taichi_virt.Vcpu.kcpu
            else None)
          (Taichi.vcpus tc)
  | Some _ | None -> cp_affinity t

let spawn_cp ?(cls = Overload.Standard) ?(tenant = 0) t task =
  let lc = lifecycle t in
  let refused =
    match lc with Some lc -> not (Lifecycle.accepting lc ~tenant) | None -> false
  in
  if refused then begin
    (* The drain gate: a Draining or Retired tenant admits no new CP
       work. Counted globally and on the tenant's lane (both sides of
       the refusal, so lane sums still equal globals). *)
    Counters.incr_h (Machine.counters t.machine) t.h_spawn_refused;
    if Tenant.is_multi t.tenant_table then
      Counters.lane_incr t.l_spawn_refused tenant
  end
  else begin
    task.Task.tenant <- tenant;
    (* Respect an explicit pin; otherwise bind to the tenant's CP CPU set. *)
    if task.Task.affinity = [] then
      task.Task.affinity <- cp_affinity_for t tenant;
    (* Register with the drain bookkeeping only once the task really
       spawns: an admission the governor parks and later sheds must not
       hold a drain hostage. *)
    let spawn () =
      (match lc with
      | Some lc -> Lifecycle.note_task lc ~tenant task
      | None -> ());
      Kernel.spawn t.kernel task
    in
    match overload t with
    | None -> spawn ()
    | Some ov -> ignore (Overload.admit ov ~tenant ~cls spawn)
  end

let advance t d = Sim.run ~until:(Sim.now t.sim + d) t.sim

let warmup t =
  (match t.taichi with
  | Some tc ->
      (* Boot IPIs can be dropped under fault injection; the boot watchdog
         re-issues them with backoff, so give a resilient system a longer
         leash before declaring the hotplug failed. *)
      let budget =
        if (Taichi.config tc).Config.resilience then Time_ns.ms 500
        else Time_ns.ms 100
      in
      let deadline = Sim.now t.sim + budget in
      while (not (Taichi.ready tc)) && Sim.now t.sim < deadline do
        advance t (Time_ns.ms 1)
      done;
      if not (Taichi.ready tc) then failwith "System.warmup: vCPUs failed to boot"
  | None -> advance t (Time_ns.ms 1));
  t.epoch <- Sim.now t.sim

let run_until_tasks_done t tasks ~limit =
  let deadline = Sim.now t.sim + limit in
  let all_done () = List.for_all Task.is_finished tasks in
  while (not (all_done ())) && Sim.now t.sim < deadline do
    advance t (Time_ns.ms 1)
  done;
  all_done ()

let epoch t = t.epoch
let elapsed t = Sim.now t.sim - t.epoch

let audit t = Core_state.audit (Machine.core_state t.machine)

let dp_latency_hist t =
  List.fold_left
    (fun acc dp ->
      Histogram.merge acc (Taichi_metrics.Recorder.histogram (Dp_service.latency dp)))
    (Histogram.create ()) (services t)

let dp_latency_hist_of t ~tenant =
  List.fold_left
    (fun acc dp ->
      if Dp_service.tenant dp = tenant then
        Histogram.merge acc
          (Taichi_metrics.Recorder.histogram (Dp_service.latency dp))
      else acc)
    (Histogram.create ()) (services t)

let dp_work_utilization t =
  let cores = dp_cores t in
  let e = elapsed t in
  if e <= 0 || cores = [] then 0.0
  else begin
    let acct = Machine.accounting t.machine in
    let work =
      List.fold_left
        (fun acc core -> acc + Accounting.busy_class acct ~core Accounting.Dp_work)
        0 cores
    in
    float_of_int work /. (float_of_int e *. float_of_int (List.length cores))
  end

let dpcp_roundtrip t = Policy.dpcp_roundtrip t.policy
