open Taichi_engine
open Taichi_hw
open Taichi_os
open Taichi_virt

type stats = {
  routed_to_vcpu : int;
  posted : int;
  wakeups : int;
  reissued : int;
}

type t = {
  config : Config.t;
  machine : Machine.t;
  kernel : Kernel.t;
  sched : Vcpu_sched.t;
  recovery : Recovery.t;
  vcpu_kcpus : (int, Vcpu.t) Hashtbl.t;
  mutable online : int;
  mutable s_routed : int;
  mutable s_posted : int;
  mutable s_wakeups : int;
  mutable s_reissued : int;
}

let is_vcpu_kcpu t id = Hashtbl.mem t.vcpu_kcpus id

(* Wakeup-IPI delivery watchdog: the poke raced a faulty fabric, so verify
   after a timeout that the vCPU actually woke (placed, or out of work) and
   re-poke with exponential backoff otherwise. Armed only when both the
   recovery machinery and a fault injector are active — the timers it
   schedules would otherwise perturb deterministic happy-path runs. *)
let rec wakeup_retry t v ~timeout ~retries ~started =
  ignore
    (Sim.after (Machine.sim t.machine) timeout (fun () ->
         if
           (not (Vcpu.is_placed v))
           && Kernel.cpu_has_work (Kernel.cpu t.kernel v.Vcpu.kcpu)
           (* An unplaced vCPU under degraded mode is policy, not a lost
              IPI — and counting retries then would keep resetting the
              quiet period that ends degraded mode. *)
           && not (Recovery.degraded t.recovery)
         then begin
           Recovery.note t.recovery ~cls:"ipi" ~action:"retry"
             ~latency:(Sim.now (Machine.sim t.machine) - started);
           Vcpu_sched.poke t.sched ~kcpu:v.Vcpu.kcpu;
           if retries + 1 < t.config.Config.ipi_retry_max then
             wakeup_retry t v ~timeout:(2 * timeout) ~retries:(retries + 1)
               ~started
         end))

let intercept t ~src ~dst ~vector:_ =
  (* Source side: an IPI from guest context forces a VM-exit; the
     orchestrator reissues it from the host (Fig 8b). *)
  (match Hashtbl.find_opt t.vcpu_kcpus src with
  | Some v when Vcpu.is_placed v ->
      t.s_reissued <- t.s_reissued + 1;
      Vcpu.record_exit v Vmexit.Ipi_send;
      (match Vcpu.core v with
      | Some core ->
          Accounting.charge
            (Machine.accounting t.machine)
            ~core Accounting.Switch t.config.Config.cost.Cost_model.light_exit
      | None -> ())
  | Some _ | None -> ());
  (* Destination side. *)
  match Hashtbl.find_opt t.vcpu_kcpus dst with
  | None -> Machine.Deliver
  | Some v ->
      t.s_routed <- t.s_routed + 1;
      if Vcpu.is_placed v then begin
        (* Posted interrupt: inject without a VM-exit. *)
        t.s_posted <- t.s_posted + 1;
        Machine.Deliver
      end
      else begin
        (* Awaken the sleeping vCPU, then deliver. *)
        t.s_wakeups <- t.s_wakeups + 1;
        Vcpu_sched.poke t.sched ~kcpu:dst;
        if
          t.config.Config.resilience
          && Machine.fault_injection_active t.machine
        then
          wakeup_retry t v ~timeout:t.config.Config.ipi_retry_timeout
            ~retries:0
            ~started:(Sim.now (Machine.sim t.machine));
        Machine.Deliver
      end

let install config machine kernel sched recovery =
  let t =
    {
      config;
      machine;
      kernel;
      sched;
      recovery;
      vcpu_kcpus = Hashtbl.create 16;
      online = 0;
      s_routed = 0;
      s_posted = 0;
      s_wakeups = 0;
      s_reissued = 0;
    }
  in
  Machine.set_ipi_interceptor machine
    (Some (fun ~src ~dst ~vector -> intercept t ~src ~dst ~vector));
  t

(* Hotplug boot watchdog: the boot IPI can be lost in a faulty fabric and
   the vCPU then never comes online. Re-issue the boot (same [on_online]
   callback — [Kernel.boot] stores it per-CPU, and the online guard makes
   a late duplicate delivery harmless) with a doubling timeout, up to
   [boot_retry_max] attempts. *)
let rec boot_watchdog t kcpu ~on_online ~timeout ~retries ~started =
  ignore
    (Sim.after (Machine.sim t.machine) timeout (fun () ->
         if
           (not (Kernel.is_online kcpu))
           && retries < t.config.Config.boot_retry_max
         then begin
           Recovery.note t.recovery ~cls:"boot" ~action:"retry"
             ~latency:(Sim.now (Machine.sim t.machine) - started);
           Kernel.boot t.kernel kcpu ~src:0 ~on_online ();
           (* Exponential backoff, capped: with a bounded fault budget a
              steady cadence converges, while uncapped doubling would
              blow through the warmup deadline before exhausting the
              retry allowance. *)
           let next =
             Int.min (2 * timeout) (4 * t.config.Config.boot_retry_timeout)
           in
           boot_watchdog t kcpu ~on_online ~timeout:next
             ~retries:(retries + 1) ~started
         end))

let register_vcpus t ~first_kcpu ~count =
  List.init count (fun i ->
      let kcpu_id = first_kcpu + i in
      let kcpu = Kernel.add_virtual_cpu t.kernel ~id:kcpu_id in
      let v =
        Vcpu.create ~vid:i ~kcpu:kcpu_id
          ~initial_slice:t.config.Config.initial_slice
      in
      Hashtbl.replace t.vcpu_kcpus kcpu_id v;
      Vcpu_sched.add_vcpu t.sched v;
      let on_online () = t.online <- t.online + 1 in
      Kernel.boot t.kernel kcpu ~src:0 ~on_online ();
      if t.config.Config.resilience then
        boot_watchdog t kcpu ~on_online
          ~timeout:t.config.Config.boot_retry_timeout ~retries:0
          ~started:(Sim.now (Machine.sim t.machine));
      v)

let online_vcpus t = t.online

let stats t =
  {
    routed_to_vcpu = t.s_routed;
    posted = t.s_posted;
    wakeups = t.s_wakeups;
    reissued = t.s_reissued;
  }
