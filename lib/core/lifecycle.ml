open Taichi_engine
open Taichi_hw
open Taichi_os
open Taichi_virt
open Taichi_accel
open Taichi_dataplane

type refusal = Backpressure | No_vcpus | No_services

let refusal_label = function
  | Backpressure -> "backpressure"
  | No_vcpus -> "no_vcpus"
  | No_services -> "no_services"

(* Everything a dynamically admitted tenant holds, so retirement can give
   it all back. The task registry is append-only during the tenant's
   life; finished tasks are pruned lazily at drain polls. *)
type assignment = {
  vcpus : Vcpu.t list;
  services : Dp_service.t list;
  mutable tasks : Task.t list;
  mutable forced : bool;
}

type t = {
  config : Config.t;
  sim : Sim.t;
  machine : Machine.t;
  kernel : Kernel.t;
  sched : Vcpu_sched.t;
  overload : Overload.t option;
  tenants : Tenant.table;
  recovery : Recovery.t;
  dps : Dp_service.t list;  (* every service, for the orphan audit *)
  cp_pcpus : int list;  (* reap affinity for cancelled stragglers *)
  mutable pool : Vcpu.t list;  (* unassigned spares, tenant -1 *)
  mutable free_floats : Dp_service.t list;
  assigned : (int, assignment) Hashtbl.t;
  mutable on_retired : (int -> unit) list;
  h_admit_refused : Counters.handle;
  h_refused_by : Counters.handle array; (* indexed by refusal *)
  h_admitted : Counters.handle;
  h_admit_abandoned : Counters.handle;
  h_admit_retries : Counters.handle;
  h_drain_forced : Counters.handle;
  h_drain_flushed : Counters.handle;
  h_drain_discarded : Counters.handle;
  h_retired : Counters.handle;
  h_drains : Counters.handle;
}

let count ?by t h = Counters.incr_h ?by (Machine.counters t.machine) h

let emitf t fmt =
  Trace.emitf (Machine.trace t.machine) ~time:(Sim.now t.sim)
    ~core:Trace.no_core ~category:Trace.Cat.churn fmt

let create ~config ~machine ~kernel ~sched ~overload ~tenants ~spares ~floats
    ~cp_pcpus ~dps ~recovery =
  let h = Counters.handle (Machine.counters machine) in
  let t =
    {
      config;
      sim = Machine.sim machine;
      machine;
      kernel;
      sched;
      overload;
      tenants;
      recovery;
      dps;
      cp_pcpus;
      pool = spares;
      free_floats = floats;
      assigned = Hashtbl.create 8;
      on_retired = [];
      h_admit_refused = h "churn.admit_refused";
      h_refused_by =
        Array.map
          (fun r -> h ("churn.admit_refused." ^ refusal_label r))
          [| Backpressure; No_vcpus; No_services |];
      h_admitted = h "churn.admitted";
      h_admit_abandoned = h "churn.admit_abandoned";
      h_admit_retries = h "churn.admit_retries";
      h_drain_forced = h "churn.drain_forced";
      h_drain_flushed = h "churn.drain_flushed";
      h_drain_discarded = h "churn.drain_discarded_pkts";
      h_retired = h "churn.retired";
      h_drains = h "churn.drains";
    }
  in
  (* The zero-orphan audit, run with every machine-wide [Core_state.audit]
     after each experiment: a retired tenant must leave nothing behind —
     no vCPU, no queue entry, no registered unfinished task, no owned
     service, no resident ring descriptor stamped with its id, no parked
     deferred admission. *)
  Core_state.add_invariant
    (Machine.core_state machine)
    ~name:"drain-audit"
    (fun () ->
      let out = ref [] in
      let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
      Tenant.iter
        (fun tn ->
          if tn.Tenant.phase = Tenant.Retired then begin
            let id = tn.Tenant.id in
            List.iter
              (fun v -> add "retired tenant %d still owns vid %d" id v.Vcpu.vid)
              (Vcpu_sched.tenant_vcpus sched ~tenant:id);
            List.iter
              (fun s -> add "retired tenant %d: %s" id s)
              (Vcpu_sched.quiesce_violations sched ~tenant:id);
            (match Hashtbl.find_opt t.assigned id with
            | Some a ->
                List.iter
                  (fun task ->
                    if not (Task.is_finished task) then
                      add "retired tenant %d still runs task %s" id
                        task.Task.tname)
                  a.tasks
            | None -> ());
            List.iter
              (fun dp ->
                if Dp_service.tenant dp = id then
                  add "retired tenant %d still owns the service on core %d" id
                    (Dp_service.core dp);
                Ring.iter
                  (fun pkt ->
                    if pkt.Packet.tenant = id then
                      add
                        "retired tenant %d left a descriptor in the core %d \
                         ring"
                        id (Dp_service.core dp))
                  (Dp_service.ring dp))
              t.dps;
            match t.overload with
            | Some ov ->
                let parked = Overload.deferred_pending_of ov ~tenant:id in
                if parked > 0 then
                  add "retired tenant %d still parks %d deferred admissions"
                    id parked
            | None -> ()
          end)
        tenants;
      List.rev !out);
  t

let on_retired t f = t.on_retired <- t.on_retired @ [ f ]

let accepting t ~tenant = Tenant.accepting t.tenants tenant

let note_task t ~tenant task =
  match Hashtbl.find_opt t.assigned tenant with
  | Some a -> a.tasks <- task :: a.tasks
  | None -> ()

let pool_size t = List.length t.pool
let free_services t = List.length t.free_floats

(* --- admission ----------------------------------------------------------- *)

let take n l =
  let rec go n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (n - 1) (x :: acc) rest
  in
  go n [] l

let admit t ?(vcpus = 1) ?(services = 1) (spec : Tenant.spec) =
  let refuse r =
    count t t.h_admit_refused;
    count t
      t.h_refused_by.(match r with
        | Backpressure -> 0
        | No_vcpus -> 1
        | No_services -> 2);
    emitf t "refused name=%s reason=%s" spec.Tenant.name (refusal_label r);
    Error r
  in
  let backpressured =
    match t.overload with Some ov -> Overload.backpressure ov | None -> false
  in
  if backpressured then refuse Backpressure
  else if List.length t.pool < vcpus then refuse No_vcpus
  else if List.length t.free_floats < services then refuse No_services
  else begin
    let tn = Tenant.admit t.tenants spec in
    let id = tn.Tenant.id in
    let lane = Vcpu_sched.admit_tenant t.sched ~weight:spec.Tenant.weight in
    if lane <> id then
      invalid_arg
        (Printf.sprintf "Lifecycle.admit: lane %d does not match tenant %d"
           lane id);
    (match t.overload with
    | Some ov -> Overload.admit_lane ov ~tenant:id
    | None -> ());
    let vs, pool = take vcpus t.pool in
    t.pool <- pool;
    let cls_rank = Tenant.cls_rank spec.Tenant.cls in
    List.iter
      (fun v ->
        Vcpu_sched.reassign_vcpu t.sched v ~tenant:id ~cls_rank;
        match t.overload with
        | Some ov -> Overload.watch_kcpu ov ~tenant:id v.Vcpu.kcpu
        | None -> ())
      vs;
    let svcs, floats = take services t.free_floats in
    t.free_floats <- floats;
    List.iter
      (fun dp ->
        let from_tenant = Dp_service.tenant dp in
        Dp_service.set_owner dp id;
        match t.overload with
        | Some ov ->
            Overload.move_dp_watch ov ~core:(Dp_service.core dp) ~from_tenant
              ~to_tenant:id
        | None -> ())
      svcs;
    Hashtbl.replace t.assigned id
      { vcpus = vs; services = svcs; tasks = []; forced = false };
    Tenant.set_phase t.tenants id Tenant.Active;
    count t t.h_admitted;
    emitf t "admit tenant=%d name=%s vcpus=%d services=%d" id spec.Tenant.name
      vcpus services;
    Ok id
  end

(* Deterministic capped exponential backoff: refusals re-arm a retry
   timer at min(cap, base * 2^attempt) until the admission lands or the
   attempt budget runs out. Everything is driven off the simulated clock,
   so two runs with the same seed retry at the same instants. *)
let admit_with_backoff t ?vcpus ?services (spec : Tenant.spec) ~on_admitted
    ~on_abandoned =
  let base = t.config.Config.admit_retry_base in
  let cap = t.config.Config.admit_retry_cap in
  let rec attempt n =
    match admit t ?vcpus ?services spec with
    | Ok id -> on_admitted id
    | Error r ->
        if n >= t.config.Config.admit_retry_max then begin
          count t t.h_admit_abandoned;
          emitf t "abandoned name=%s attempts=%d" spec.Tenant.name n;
          on_abandoned r
        end
        else begin
          count t t.h_admit_retries;
          let delay = Int.min cap (base * (1 lsl Int.min n 20)) in
          ignore (Sim.after t.sim delay (fun () -> attempt (n + 1)))
        end
  in
  attempt 0

(* --- retirement ---------------------------------------------------------- *)

let prune_finished a =
  a.tasks <- List.filter (fun task -> not (Task.is_finished task)) a.tasks

let quiesced t ~tenant a =
  prune_finished a;
  a.tasks = []
  && Vcpu_sched.quiesce_violations t.sched ~tenant = []
  && List.for_all (fun dp -> not (Dp_service.pending_work dp)) a.services

(* The escalation half of the drain protocol, taken once when the window
   overruns: cancel the tenant's remaining tasks (they exit at their next
   preemptible boundary; their affinity is re-pointed at the dedicated CP
   pCPUs so an unbacked kcpu's queue can be stolen dry), force-evict its
   placed and borrowing vCPUs, flush its weighted-queue entries and throw
   away its ring backlog. Quiescence is then re-checked on the same poll
   cadence — force bounds the graceful phase, it does not tear state down
   mid-invariant. *)
let force_drain t ~tenant a =
  a.forced <- true;
  count t t.h_drain_forced;
  emitf t "force tenant=%d" tenant;
  prune_finished a;
  List.iter
    (fun task ->
      Task.cancel task;
      task.Task.affinity <- t.cp_pcpus)
    a.tasks;
  Vcpu_sched.force_evict_tenant t.sched ~tenant;
  let flushed = Vcpu_sched.flush_tenant t.sched ~tenant in
  if flushed <> [] then
    count ~by:(List.length flushed) t t.h_drain_flushed;
  List.iter
    (fun dp ->
      let n = Dp_service.discard_backlog dp in
      if n > 0 then count ~by:n t t.h_drain_discarded)
    a.services;
  Recovery.note t.recovery ~cls:"drain" ~action:"forced"
    ~latency:t.config.Config.drain_window

let finalize t ~tenant a =
  Vcpu_sched.retire_tenant t.sched ~tenant;
  List.iter
    (fun v -> Vcpu_sched.reassign_vcpu t.sched v ~tenant:(-1) ~cls_rank:1)
    a.vcpus;
  t.pool <- t.pool @ a.vcpus;
  List.iter
    (fun dp ->
      let resting = Dp_service.resting_owner dp in
      Dp_service.set_owner dp resting;
      match t.overload with
      | Some ov ->
          Overload.move_dp_watch ov ~core:(Dp_service.core dp)
            ~from_tenant:tenant ~to_tenant:resting
      | None -> ())
    a.services;
  t.free_floats <- t.free_floats @ a.services;
  (match t.overload with
  | Some ov -> Overload.retire_lane ov ~tenant
  | None -> ());
  Tenant.set_phase t.tenants tenant Tenant.Retired;
  count t t.h_retired;
  emitf t "retired tenant=%d forced=%b" tenant a.forced;
  List.iter (fun f -> f tenant) t.on_retired

let retire t ~tenant =
  let a =
    match Hashtbl.find_opt t.assigned tenant with
    | Some a -> a
    | None ->
        invalid_arg
          (Printf.sprintf
             "Lifecycle.retire: tenant %d was not dynamically admitted" tenant)
  in
  Tenant.set_phase t.tenants tenant Tenant.Draining;
  count t t.h_drains;
  emitf t "drain tenant=%d window=%d" tenant t.config.Config.drain_window;
  (* A departing tenant's parked CP admissions must never run. *)
  (match t.overload with
  | Some ov -> Overload.quiesce_lane ov ~tenant
  | None -> ());
  let deadline = Sim.now t.sim + t.config.Config.drain_window in
  let rec poll () =
    if quiesced t ~tenant a then finalize t ~tenant a
    else begin
      if (not a.forced) && Sim.now t.sim >= deadline then
        force_drain t ~tenant a
      else if a.forced then
        (* Residual arrivals during the forced phase are discarded on the
           same cadence, so a workload still aimed at the floating ring
           cannot hold retirement hostage. *)
        List.iter
          (fun dp ->
            let n = Dp_service.discard_backlog dp in
            if n > 0 then count ~by:n t t.h_drain_discarded)
          a.services;
      ignore (Sim.after t.sim t.config.Config.drain_poll poll)
    end
  in
  ignore (Sim.after t.sim t.config.Config.drain_poll poll)
