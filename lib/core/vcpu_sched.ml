open Taichi_engine
open Taichi_hw
open Taichi_os
open Taichi_virt
open Taichi_accel
open Taichi_dataplane

type stats = {
  placements : int;
  probe_evictions : int;
  pending_evictions : int;
  halt_exits : int;
  rotations : int;
  lock_rescues : int;
  borrows : int;
  unsafe_suspensions : int;
}

(* A mirrored counter cell: global handle plus the per-tenant lane for
   the same name, interned once at [create] so per-event scheduler
   bookkeeping never hashes a string or formats a tenant name. *)
type cell = { ch : Counters.handle; cl : Counters.lane }

type cells = {
  c_placements : cell;
  c_slice_expiries : cell;
  c_halt_exits : cell;
  c_evict_probe : cell;
  c_evict_pending : cell;
  c_evict_halt : cell;
  c_evict_drain : cell;
  c_evict_other : (string, cell) Hashtbl.t;
      (* rare eviction causes (watchdog, …): interned on first use *)
  c_grant_ns : cell;
  h_grant_after_retire : Counters.handle;
  h_rotations : Counters.handle;
  h_rescues : Counters.handle;
  h_borrows : Counters.handle;
  h_borrow_retries : Counters.handle;
  h_unsafe : Counters.handle;
}

type t = {
  config : Config.t;
  sim : Sim.t;
  machine : Machine.t;
  ctr : Counters.t;
  cells : cells;
  cs : Core_state.t;  (* authoritative occupancy, owned by the machine *)
  kernel : Kernel.t;
  softirq : Softirq.t;
  sw : Sw_probe.t;
  table : State_table.t;
  recovery : Recovery.t;
  (* Point lookups on the per-event path are arrays over dense ids
     (physical core, kcpu, vid). The three tables the code folds — [dps],
     [placed] and [borrowing] — stay [Hashtbl]: [find_parked_dp], the
     watchdog, degraded eviction and the churn drain act in their fold
     order, and the goldens pin it. *)
  pending_place : Vcpu.t option array;  (* core -> vcpu awaiting softirq *)
  mutable vcpu_list : Vcpu.t list;  (* reverse registration order *)
  mutable by_kcpu : Vcpu.t option array;  (* kcpu id -> vcpu *)
  dps : (int, Dp_service.t) Hashtbl.t;  (* physical core -> service *)
  placed : (int, Vcpu.t) Hashtbl.t;  (* physical core -> vcpu *)
  slice_timers : Sim.handle option array;  (* core -> expiry event *)
  runq : Vcpu.t Wsched.t;
      (* runnable unplaced vCPUs: two-stage weighted queue — tenant
         deficit-round-robin over granted pCPU time, then strict-priority
         FIFO across admission-class ranks. With the implicit single
         tenant it degenerates to the flat FIFO it replaced. *)
  mutable in_runq : bool array;  (* by vid *)
  tag_tenants : bool;  (* explicit multi-tenant table: mirror counters *)
  borrowing : (int, unit) Hashtbl.t;  (* vid set: borrow in progress *)
  borrowed_cores : bool array;  (* by core: CP pCPUs currently frozen *)
  mutable cp_pcpus : int list;
  mutable next_borrow : int;
  mutable place_gate : (int -> bool) option;
      (* overload governor's per-tenant admission gate for placements;
         [None] = open *)
  mutable s_placements : int;
  mutable s_probe_evictions : int;
  mutable s_pending_evictions : int;
  mutable s_halt_exits : int;
  mutable s_rotations : int;
  mutable s_lock_rescues : int;
  mutable s_borrows : int;
  mutable s_unsafe : int;
}

let charge_core t core d =
  if d > 0 then Accounting.charge (Machine.accounting t.machine) ~core Accounting.Switch d

let world_switch t = t.config.Config.cost.Cost_model.world_switch
let light_exit t = t.config.Config.cost.Cost_model.light_exit

(* A yield evicted within this window counts as a false positive for the
   adaptive empty-poll threshold. *)
let short_yield t = 5 * t.config.Config.cost.Cost_model.world_switch + Time_ns.us 15

let kcpu_of t v = Kernel.cpu t.kernel v.Vcpu.kcpu

(* Matches, not [v.Vcpu.placement = Vcpu.On_core core] or
   [Core_state.get t.cs ~core = Core_state.Vcpu_running vid], each of
   which allocates the constructor and calls the polymorphic
   [caml_equal]. *)
let on_core v core =
  match v.Vcpu.placement with Vcpu.On_core c -> c = core | Vcpu.Unplaced -> false

let runs_vid t ~core vid =
  match Core_state.get t.cs ~core with
  | Core_state.Vcpu_running v -> v = vid
  | _ -> false

let has_work t v = Kernel.cpu_has_work (kcpu_of t v)

(* --- observability ------------------------------------------------------- *)

let count t h = Counters.incr_h t.ctr h

(* Counter increments attributable to one vCPU mirror into the owning
   tenant's namespace under an explicit multi-tenant table; single-tenant
   runs emit exactly the seed counter set. Pooled spares (tenant -1,
   churn mode) mirror nowhere. *)
let count_v t v c =
  Counters.incr_h t.ctr c.ch;
  if t.tag_tenants && v.Vcpu.tenant >= 0 then
    Counters.lane_incr c.cl v.Vcpu.tenant

(* The cell for one eviction-cause label. The common causes are fields;
   anything else (watchdog and future causes) interns here, once, off
   the per-event path. *)
let evict_cell t kind =
  match Hashtbl.find_opt t.cells.c_evict_other kind with
  | Some c -> c
  | None ->
      let name = "sched.evictions." ^ kind in
      let c =
        { ch = Counters.handle t.ctr name; cl = Counters.lane t.ctr name }
      in
      Hashtbl.replace t.cells.c_evict_other kind c;
      c

(* Raw pCPU grant time, charged at teardown. Feeds the weighted queue's
   tenant clocks always (a single tenant's clock is inert), the counter
   namespace only in multi-tenant mode. A pooled spare charges nobody,
   and a straggler charge landing after its lane retired is dropped
   whole — global and mirror together, so the lane sums stay equal to
   the globals — and surfaced on its own counter. *)
let charge_grant t v occupancy =
  let tenant = v.Vcpu.tenant in
  if tenant < 0 then ()
  else if not (Wsched.is_live t.runq ~tenant) then
    count t t.cells.h_grant_after_retire
  else begin
    Wsched.charge t.runq ~tenant occupancy;
    if t.tag_tenants && occupancy > 0 then begin
      Counters.incr_h t.ctr ~by:occupancy t.cells.c_grant_ns.ch;
      Counters.lane_incr t.cells.c_grant_ns.cl ~by:occupancy tenant
    end
  end

(* Every [emitf] site is guarded by [tracing]: an untraced run must not
   apply the format to its arguments at all. *)
let tracing t = Trace.enabled (Machine.trace t.machine)

let emitf t ~core ~category fmt =
  Trace.emitf (Machine.trace t.machine) ~time:(Sim.now t.sim) ~core ~category fmt

(* All occupancy changes go through the machine's state machine; the trace
   [core.state] records and the accelerator mirror derive from it. *)
let transition t ~core ~cause st = Core_state.transition t.cs ~core ~cause st

(* --- runnable queue ----------------------------------------------------- *)

(* Degraded mode is static partitioning: data-plane cores stay data-plane,
   so the placement entry points act as if the runqueue were empty. The
   queue itself is preserved — re-arming picks the waiters straight up. *)
let is_degraded t = Recovery.degraded t.recovery

(* The overload governor's per-tenant placement gate sits next to the
   degraded check: a denial leaves the vCPU queued (the core parks),
   exactly like an empty runqueue, so a later kick or idle notification
   retries. The gate is only consulted when there is something to place —
   a token bucket behind it must not be drained by empty polls — and the
   weighted queue consults it at most once per backlogged tenant per pop,
   so one throttled tenant cannot gate its neighbours' placements. *)
let gate_open t tenant =
  match t.place_gate with None -> true | Some allowed -> allowed tenant

let rec pop_runnable t =
  if is_degraded t then None
  else
    match Wsched.pop t.runq ~gate:(gate_open t) with
    | None -> None  (* empty, or every backlogged tenant gated *)
    | Some v ->
        t.in_runq.(v.Vcpu.vid) <- false;
        (* Skip stale entries: placed meanwhile, borrowing, or out of
           work. *)
        if
          Vcpu.is_placed v
          || Hashtbl.mem t.borrowing v.Vcpu.vid
          || not (has_work t v)
        then pop_runnable t
        else Some v

(* A pooled spare (tenant -1) or a vCPU whose tenant lane has already
   retired never enters the weighted queue: the pool has no lane to queue
   on, and a retired lane's entries could not be popped anyway. Both are
   quiet no-ops — churn teardown races a late wakeup hook here. *)
let mark_runnable t v =
  if
    v.Vcpu.tenant >= 0
    && Wsched.is_live t.runq ~tenant:v.Vcpu.tenant
    && (not (Vcpu.is_placed v))
    && (not t.in_runq.(v.Vcpu.vid))
    && (not (Hashtbl.mem t.borrowing v.Vcpu.vid))
    && has_work t v
  then begin
    Wsched.push t.runq ~tenant:v.Vcpu.tenant ~cls:v.Vcpu.cls_rank v;
    t.in_runq.(v.Vcpu.vid) <- true
  end

let runnable_waiting t =
  (not (is_degraded t))
  && Wsched.exists
       (fun v ->
         (not (Vcpu.is_placed v))
         && (not (Hashtbl.mem t.borrowing v.Vcpu.vid))
         && has_work t v)
       t.runq

(* First data-plane core currently parked, if any: the preferred landing
   spot for a vCPU with fresh work and the §4.1 rescue target. *)
let find_parked_dp t =
  Hashtbl.fold
    (fun _ dp acc ->
      match acc with
      | Some _ -> acc
      | None ->
          if Dp_service.state dp = Dp_service.Idle_parked then Some dp
          else None)
    t.dps None

(* --- placement ----------------------------------------------------------- *)

let cancel_slice t core =
  match t.slice_timers.(core) with
  | Some h ->
      Sim.cancel t.sim h;
      t.slice_timers.(core) <- None
  | None -> ()

let rec arm_slice t v core =
  cancel_slice t core;
  let h = Sim.after t.sim v.Vcpu.slice (fun () -> on_slice_expiry t core) in
  t.slice_timers.(core) <- Some h;
  v.Vcpu.slice_started <- Sim.now t.sim

(* Bring [v] up on [core]; the core must already be committed (yielded DP
   or direct vCPU switch). The transition into [Switching From_dp] is a
   self-transition on the softirq placement path (the yield already moved
   the core there) and a fresh switch on the rotation path. *)
and back_on_core t v core ~cause =
  transition t ~core ~cause (Core_state.Switching Core_state.From_dp);
  Hashtbl.replace t.placed core v;
  v.Vcpu.placement <- Vcpu.On_core core;
  v.Vcpu.last_placed <- Sim.now t.sim;
  Kernel.set_backing_core t.kernel (kcpu_of t v) (Some core);
  t.s_placements <- t.s_placements + 1;
  count_v t v t.cells.c_placements;
  if tracing t then
    emitf t ~core ~category:Trace.Cat.sched_place "vid=%d kcpu=%d" v.Vcpu.vid
      v.Vcpu.kcpu;
  charge_core t core (world_switch t);
  ignore
    (Sim.after t.sim (world_switch t) (fun () ->
         match Hashtbl.find_opt t.placed core with
         | Some v' when v' == v ->
             Kernel.set_backed t.kernel (kcpu_of t v) true;
             transition t ~core ~cause (Core_state.Vcpu_running v.Vcpu.vid);
             arm_slice t v core
         | Some _ | None -> ()))

(* DP-to-CP switching enters guest context through the dedicated softirq
   raised on the yielding core (§4.1): commit the yield, then let the
   softirq handler perform the context switch. *)
and try_place_on_dp t v dp =
  if Dp_service.try_yield dp then begin
    let core = Dp_service.core dp in
    (* Reserve the core. The yield itself moved the core to [Switching
       From_dp], which the accelerator mirror reflects as V-state at the
       same instant: the hardware probe already treats the core as
       vCPU-bound while the softirq is in flight, so a racing packet
       evicts cleanly. *)
    t.pending_place.(core) <- Some v;
    Hashtbl.replace t.placed core v;
    v.Vcpu.placement <- Vcpu.On_core core;
    v.Vcpu.last_placed <- Sim.now t.sim;
    Softirq.raise_softirq t.softirq ~cpu:core ~vector:Softirq.vector_taichi;
    true
  end
  else false

and on_place_softirq t core =
  match t.pending_place.(core) with
  | None -> ()
  | Some v -> (
      t.pending_place.(core) <- None;
      (* The yield may have been revoked (an eviction raced the softirq). *)
      match Hashtbl.find_opt t.placed core with
      | Some v' when v' == v && on_core v core ->
          back_on_core t v core ~cause:Core_state.Place
      | Some _ | None -> ())

(* A data-plane core crossed its empty-poll threshold. *)
and on_dp_idle t dp =
  match pop_runnable t with
  | None -> ()  (* core parks; claimed later by [try_place_parked] *)
  | Some v -> if not (try_place_on_dp t v dp) then mark_runnable t v

(* Work appeared for an unplaced vCPU: grab a parked core if one exists.
   Pooled spares (tenant -1) are never placed — they carry no work until
   the churn lifecycle assigns them to a tenant. *)
and try_place_parked t v =
  if
    v.Vcpu.tenant >= 0
    && (not (Vcpu.is_placed v))
    && not (Hashtbl.mem t.borrowing v.Vcpu.vid)
  then
    if is_degraded t then mark_runnable t v
    else
      match find_parked_dp t with
      | Some dp when gate_open t v.Vcpu.tenant && try_place_on_dp t v dp -> ()
      | Some _ | None -> mark_runnable t v

(* Tear [v] down from [core]; pollution and backed-time bookkeeping. The
   core's next owner is decided by the caller. *)
and unback t v core =
  cancel_slice t core;
  let occupancy = Sim.now t.sim - v.Vcpu.last_placed in
  charge_grant t v occupancy;
  v.Vcpu.total_backed <- v.Vcpu.total_backed + occupancy;
  Cache_model.occupy_foreign (Machine.cache t.machine) ~core occupancy;
  Kernel.set_backed t.kernel (kcpu_of t v) false;
  Kernel.set_backing_core t.kernel (kcpu_of t v) None;
  Hashtbl.remove t.placed core;
  v.Vcpu.placement <- Vcpu.Unplaced

(* Full eviction back to the data-plane service. The transition cause maps
   onto the stable eviction label exported with the trace: "probe",
   "pending" or "halt". *)
and evict_to_dp t v core ~cause =
  let kind, kcell =
    match (cause : Core_state.cause) with
    | Core_state.Probe -> ("probe", t.cells.c_evict_probe)
    | Core_state.Slice_expiry -> ("pending", t.cells.c_evict_pending)
    | Core_state.Halt -> ("halt", t.cells.c_evict_halt)
    | c ->
        let kind = Core_state.cause_label c in
        (kind, evict_cell t kind)
  in
  count_v t v kcell;
  if tracing t then
    emitf t ~core ~category:Trace.Cat.sched_evict "vid=%d kind=%s" v.Vcpu.vid
      kind;
  unback t v core;
  (* Entering [Switching To_dp] flips the accelerator mirror back to
     P-state at this same instant, exactly where the direct table write
     used to sit. *)
  transition t ~core ~cause (Core_state.Switching Core_state.To_dp);
  let dp = Hashtbl.find t.dps core in
  (* §4.1 safe scheduling in lock context. *)
  let cur = Kernel.current (kcpu_of t v) in
  let lock_bound = match cur with Some task -> Task.nonpreemptible task | None -> false in
  if lock_bound && t.config.Config.lock_safe_resched then rescue t v
  else begin
    if lock_bound then begin
      t.s_unsafe <- t.s_unsafe + 1;
      count t t.cells.h_unsafe
    end;
    (* The VM-exit acts as a scheduling tick inside the guest context: a
       preemptible current task returns to the runqueue, where idle CP
       pCPUs can steal it instead of waiting for the vCPU's next slot. *)
    Kernel.requeue_if_preemptible t.kernel (kcpu_of t v);
    mark_runnable t v;
    (* Another core may be sitting parked: migrate there right away
       rather than waiting for its next idle notification. *)
    try_place_parked t v
  end;
  Dp_service.resume dp ~switch_cost:(world_switch t)

(* Direct vCPU-to-vCPU switch: the core stays in V-state. *)
and switch_vcpu t ~from_v ~to_v core ~cause =
  unback t from_v core;
  t.s_rotations <- t.s_rotations + 1;
  count t t.cells.h_rotations;
  if tracing t then
    emitf t ~core ~category:Trace.Cat.sched_rotate "from=%d to=%d"
      from_v.Vcpu.vid to_v.Vcpu.vid;
  mark_runnable t from_v;
  back_on_core t to_v core ~cause

and on_slice_expiry t core =
  t.slice_timers.(core) <- None;
  match Hashtbl.find_opt t.placed core with
  | None -> ()
  | Some v ->
      Vcpu.record_exit v Vmexit.Timeslice_expired;
      let dp = Hashtbl.find t.dps core in
      let pending = Dp_service.pending_work dp in
      count_v t v t.cells.c_slice_expiries;
      if tracing t then
        emitf t ~core ~category:Trace.Cat.sched_slice "vid=%d pending=%b"
          v.Vcpu.vid pending;
      if pending then begin
        t.s_pending_evictions <- t.s_pending_evictions + 1;
        v.Vcpu.slice <- t.config.Config.initial_slice;
        (* Only a yield evicted almost immediately was a false positive;
           an eviction after a long donated stretch is a successful yield
           and drives the threshold down, not up. *)
        if Sim.now t.sim - v.Vcpu.last_placed < short_yield t then
          Sw_probe.on_false_positive t.sw ~core
        else Sw_probe.on_sustained_idle t.sw ~core;
        evict_to_dp t v core ~cause:Core_state.Slice_expiry
      end
      else begin
        Sw_probe.on_sustained_idle t.sw ~core;
        if t.config.Config.adaptive_slice then
          v.Vcpu.slice <- Int.min (2 * v.Vcpu.slice) t.config.Config.max_slice;
        charge_core t core (light_exit t);
        if runnable_waiting t then begin
          match pop_runnable t with
          | Some v' -> (
              (* Prefer spreading onto a parked core over rotating here:
                 rotation costs two world switches for zero extra
                 capacity. *)
              match find_parked_dp t with
              | Some dp when try_place_on_dp t v' dp ->
                  continue_or_halt t v core
              | Some _ | None ->
                  switch_vcpu t ~from_v:v ~to_v:v' core
                    ~cause:Core_state.Slice_expiry)
          | None -> continue_or_halt t v core
        end
        else continue_or_halt t v core
      end

and continue_or_halt t v core =
  if has_work t v then arm_slice t v core
  else halt_exit t v core

and halt_exit t v core =
  Vcpu.record_exit v Vmexit.Halt;
  t.s_halt_exits <- t.s_halt_exits + 1;
  count_v t v t.cells.c_halt_exits;
  if tracing t then
    emitf t ~core ~category:Trace.Cat.sched_halt "vid=%d" v.Vcpu.vid;
  match pop_runnable t with
  | Some v' -> switch_vcpu t ~from_v:v ~to_v:v' core ~cause:Core_state.Halt
  | None -> evict_to_dp t v core ~cause:Core_state.Halt

(* --- §4.1 lock-context rescue ------------------------------------------- *)

(* [rescue] is the counted entry point: one lock-context rescue event per
   eviction, however many placement retries it takes. The retry timer loops
   through [do_rescue] so re-entries do not inflate [s_lock_rescues]. *)
and rescue t v =
  t.s_lock_rescues <- t.s_lock_rescues + 1;
  count t t.cells.h_rescues;
  if tracing t then
    emitf t ~core:Trace.no_core ~category:Trace.Cat.sched_rescue "vid=%d"
      v.Vcpu.vid;
  do_rescue t v

and do_rescue t v =
  match find_parked_dp t with
  | Some dp when try_place_on_dp t v dp -> ()
  | Some _ | None -> borrow_cp_pcpu t v

(* The borrow operates BENEATH the OS, like the production softirq overlay:
   the chosen CP pCPU's kernel context is frozen outright (even a spinning
   task — it is burning cycles waiting for exactly the lock our vCPU
   holds), the vCPU runs on the physical core until its task leaves the
   lock context, then the pCPU is thawed. Going through the OS scheduler
   instead would deadlock: the grant would wait on spinners that wait on
   the borrowed vCPU's lock. *)
and borrow_cp_pcpu t v =
  (* Never freeze a pCPU whose current task is inside a lock or other
     non-preemptible routine: suspending a lock holder beneath the OS
     could recreate the very circular wait the rescue exists to break.
     That includes spinners — the lock's FIFO handoff can make a frozen
     waiter the next owner, freezing the lock itself. *)
  let safe_target id =
    (not t.borrowed_cores.(id))
    &&
    match Kernel.current (Kernel.cpu t.kernel id) with
    | Some task -> not (Task.nonpreemptible task)
    | None -> true
  in
  let free_cp = List.filter safe_target t.cp_pcpus in
  match free_cp with
  | [] ->
      if t.cp_pcpus = [] then begin
        t.s_unsafe <- t.s_unsafe + 1;
        count t t.cells.h_unsafe;
        mark_runnable t v
      end
      else begin
        (* All CP pCPUs carry borrows; retry shortly. *)
        count t t.cells.h_borrow_retries;
        ignore
          (Sim.after t.sim t.config.Config.borrow_slice (fun () ->
               if
                 (not (Vcpu.is_placed v))
                 && not (Hashtbl.mem t.borrowing v.Vcpu.vid)
               then do_rescue t v))
      end
  | cp_list ->
      t.s_borrows <- t.s_borrows + 1;
      count t t.cells.h_borrows;
      Hashtbl.replace t.borrowing v.Vcpu.vid ();
      let n = List.length cp_list in
      let cp_id = List.nth cp_list (t.next_borrow mod n) in
      t.next_borrow <- t.next_borrow + 1;
      t.borrowed_cores.(cp_id) <- true;
      if tracing t then
        emitf t ~core:cp_id ~category:Trace.Cat.sched_borrow
          "start vid=%d cp=%d" v.Vcpu.vid cp_id;
      (* The rescue freezes the pCPU beneath the OS: a world switch away
         from CP occupancy, then the vCPU runs on the physical core. *)
      transition t ~core:cp_id ~cause:Core_state.Lock_rescue
        (Core_state.Switching Core_state.From_dp);
      let cp = Kernel.cpu t.kernel cp_id in
      Kernel.set_backed t.kernel cp false;
      let kc = kcpu_of t v in
      v.Vcpu.placement <- Vcpu.On_core cp_id;
      v.Vcpu.last_placed <- Sim.now t.sim;
      Kernel.set_backing_core t.kernel kc (Some cp_id);
      charge_core t cp_id (world_switch t);
      ignore
        (Sim.after t.sim (world_switch t) (fun () ->
             Kernel.set_backed t.kernel kc true;
             transition t ~core:cp_id ~cause:Core_state.Borrow
               (Core_state.Vcpu_running v.Vcpu.vid);
             borrow_check t v cp_id))

and borrow_check t v cp_id =
  ignore
    (Sim.after t.sim t.config.Config.borrow_slice (fun () ->
         if
           (* The watchdog may have force-ended this borrow between two
              checks; a stale timer must not end it a second time. *)
           Hashtbl.mem t.borrowing v.Vcpu.vid
           && on_core v cp_id
         then
           let kc = kcpu_of t v in
           let still_locked =
             match Kernel.current kc with
             | Some task -> Task.nonpreemptible task
             | None -> false
           in
           if still_locked then borrow_check t v cp_id
           else begin
           (* End the borrow: thaw the pCPU. *)
           let occupancy = Sim.now t.sim - v.Vcpu.last_placed in
           charge_grant t v occupancy;
           v.Vcpu.total_backed <- v.Vcpu.total_backed + occupancy;
           Kernel.set_backed t.kernel kc false;
           Kernel.requeue_if_preemptible t.kernel kc;
           Kernel.set_backing_core t.kernel kc None;
           v.Vcpu.placement <- Vcpu.Unplaced;
           Hashtbl.remove t.borrowing v.Vcpu.vid;
           t.borrowed_cores.(cp_id) <- false;
           if tracing t then
             emitf t ~core:cp_id ~category:Trace.Cat.sched_borrow
               "end vid=%d cp=%d" v.Vcpu.vid cp_id;
           transition t ~core:cp_id ~cause:Core_state.Borrow
             Core_state.Cp_dedicated;
           Kernel.set_backed t.kernel (Kernel.cpu t.kernel cp_id) true;
           mark_runnable t v;
           try_place_parked t v
         end))

(* --- hardware-probe entry ------------------------------------------------ *)

let on_probe_irq t ~core =
  match Hashtbl.find_opt t.placed core with
  | None -> ()
  | Some v ->
      Vcpu.record_exit v Vmexit.Hw_probe_irq;
      t.s_probe_evictions <- t.s_probe_evictions + 1;
      v.Vcpu.slice <- t.config.Config.initial_slice;
      if Sim.now t.sim - v.Vcpu.last_placed < short_yield t then
        Sw_probe.on_false_positive t.sw ~core
      else Sw_probe.on_sustained_idle t.sw ~core;
      evict_to_dp t v core ~cause:Core_state.Probe

(* --- kernel hooks --------------------------------------------------------- *)

let vcpu_of_kcpu t kcpu_id =
  if kcpu_id < Array.length t.by_kcpu then t.by_kcpu.(kcpu_id) else None

let on_work_available t kcpu_id =
  match vcpu_of_kcpu t kcpu_id with
  | None -> ()
  | Some v -> try_place_parked t v

let poke t ~kcpu = on_work_available t kcpu

let on_cpu_idle t kcpu_id =
  match vcpu_of_kcpu t kcpu_id with
  | None -> ()
  | Some v -> (
      match v.Vcpu.placement with
      | Vcpu.Unplaced -> ()
      | Vcpu.On_core core ->
          if Hashtbl.mem t.borrowing v.Vcpu.vid then ()
          else
            ignore
              (Sim.after t.sim t.config.Config.halt_poll (fun () ->
                   match Hashtbl.find_opt t.placed core with
                   | Some v' when v' == v && not (has_work t v) ->
                       halt_exit t v core
                   | Some _ | None -> ())))

(* --- hung-vCPU / stuck-lock-holder watchdog ------------------------------ *)

let lockbound t v =
  match Kernel.current (kcpu_of t v) with
  | Some task -> Task.nonpreemptible task
  | None -> false

let overdue t v =
  Sim.now t.sim - v.Vcpu.last_placed > t.config.Config.watchdog_bound

(* A long-placed vCPU is only "hung" under eviction pressure: pending
   data-plane work the normal eviction paths should have acted on, a
   non-preemptible current task, or degraded mode reclaiming the core. A
   vCPU computing on a genuinely idle core may keep it. *)
let watchdog_pressure t v core =
  (match Hashtbl.find_opt t.dps core with
  | Some dp -> Dp_service.pending_work dp
  | None -> false)
  || lockbound t v || is_degraded t

(* Rung 3 of the escalation: a borrow exceeded the watchdog bound — the
   holder never left its lock context. Force the borrow to end: the vCPU
   is suspended unbacked (counted as an unsafe suspension) and the CP pCPU
   returns to the kernel. The guest task keeps its lock state and resumes
   the next time the vCPU is placed — graceful degradation, not repair. *)
let force_end_borrow t v cp_id =
  let kc = kcpu_of t v in
  let stuck_for = Sim.now t.sim - v.Vcpu.last_placed in
  charge_grant t v stuck_for;
  v.Vcpu.total_backed <- v.Vcpu.total_backed + stuck_for;
  Kernel.set_backed t.kernel kc false;
  Kernel.set_backing_core t.kernel kc None;
  v.Vcpu.placement <- Vcpu.Unplaced;
  Hashtbl.remove t.borrowing v.Vcpu.vid;
  t.borrowed_cores.(cp_id) <- false;
  t.s_unsafe <- t.s_unsafe + 1;
  count t t.cells.h_unsafe;
  if tracing t then
    emitf t ~core:cp_id ~category:Trace.Cat.sched_borrow
      "forced-end vid=%d cp=%d" v.Vcpu.vid cp_id;
  transition t ~core:cp_id ~cause:Core_state.Watchdog Core_state.Cp_dedicated;
  Kernel.set_backed t.kernel (Kernel.cpu t.kernel cp_id) true;
  mark_runnable t v;
  Recovery.note t.recovery ~cls:"watchdog" ~action:"forced" ~latency:stuck_for

let watchdog_check t =
  (* Snapshot both maps: every action below mutates them. *)
  let placed = Hashtbl.fold (fun core v acc -> (core, v) :: acc) t.placed [] in
  List.iter
    (fun (core, v) ->
      if
        overdue t v
        && Option.is_none t.pending_place.(core)
        && runs_vid t ~core v.Vcpu.vid
        && watchdog_pressure t v core
      then begin
        let stuck_for = Sim.now t.sim - v.Vcpu.last_placed in
        (* Rung 1: plain reschedule. Rung 2: the holder is lock-bound, so
           the eviction funnels into the §4.1 rescue (parked core or
           borrowed CP pCPU). *)
        let action =
          if lockbound t v && t.config.Config.lock_safe_resched then "rescue"
          else "resched"
        in
        evict_to_dp t v core ~cause:Core_state.Watchdog;
        Recovery.note t.recovery ~cls:"watchdog" ~action ~latency:stuck_for
      end)
    placed;
  let borrows = Hashtbl.fold (fun vid () acc -> vid :: acc) t.borrowing [] in
  List.iter
    (fun vid ->
      match List.find_opt (fun v -> v.Vcpu.vid = vid) t.vcpu_list with
      | None -> ()
      | Some v -> (
          match v.Vcpu.placement with
          | Vcpu.On_core cp_id when overdue t v && runs_vid t ~core:cp_id vid
            ->
              force_end_borrow t v cp_id
          | Vcpu.On_core _ | Vcpu.Unplaced -> ()))
    borrows;
  (* A lock holder suspended unbacked (an unsafe suspension, or a borrow
     the rung above forced to end) normally waits in the runqueue for the
     next [pop_runnable] — which degraded mode blocks indefinitely. Left
     alone it would freeze with its spinners burning every CP pCPU, so
     re-rescue it here; lock safety trumps partitioning. *)
  if is_degraded t then
    List.iter
      (fun v ->
        if
          (not (Vcpu.is_placed v))
          && not (Hashtbl.mem t.borrowing v.Vcpu.vid)
        then
          match Kernel.current (kcpu_of t v) with
          | Some task
            when task.Task.locks_held > 0 || task.Task.np_depth > 0 ->
              rescue t v
          | Some _ | None -> ())
      t.vcpu_list

let rec watchdog_loop t =
  ignore
    (Sim.after t.sim t.config.Config.watchdog_period (fun () ->
         watchdog_check t;
         watchdog_loop t))

let watchdog_stuck t =
  let stuck = ref 0 in
  Hashtbl.iter
    (fun core v -> if overdue t v && watchdog_pressure t v core then incr stuck)
    t.placed;
  Hashtbl.iter
    (fun vid () ->
      match List.find_opt (fun v -> v.Vcpu.vid = vid) t.vcpu_list with
      | Some v when overdue t v -> incr stuck
      | Some _ | None -> ())
    t.borrowing;
  !stuck

(* --- construction --------------------------------------------------------- *)

(* Cross-module agreement checks registered on the authoritative state
   machine and run by [Core_state.audit] after every experiment:

   - kernel-backing: a backed virtual kCPU ⇔ its core is [Vcpu_running]
     with the matching vid (placement map or borrow bookkeeping agrees);
   - dp-view: the service's derived state is the 1:1 image of the core's
     [Dp_*] state — yielded exactly when the core is not data-plane owned
     (guards against anyone reintroducing a cached occupancy copy);
   - state-table-mirror: the accelerator's eventually-consistent P/V mirror
     matches the authoritative state, with lag bounded by the IPI latency. *)
let install_invariants t =
  Core_state.add_invariant t.cs ~name:"kernel-backing" (fun () ->
      List.concat_map
        (fun v ->
          if not (Kernel.is_backed (kcpu_of t v)) then []
          else
            match v.Vcpu.placement with
            | Vcpu.Unplaced ->
                [ Printf.sprintf "vid %d is backed but unplaced" v.Vcpu.vid ]
            | Vcpu.On_core core -> (
                match Core_state.get t.cs ~core with
                | Core_state.Vcpu_running vid when vid = v.Vcpu.vid -> []
                | st ->
                    [
                      Printf.sprintf "vid %d is backed on core %d but core is %s"
                        v.Vcpu.vid core
                        (Core_state.state_label st);
                    ]))
        t.vcpu_list);
  Core_state.add_invariant t.cs ~name:"occupancy" (fun () ->
      let out = ref [] in
      let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
      for core = 0 to Core_state.cores t.cs - 1 do
        match Core_state.get t.cs ~core with
        | Core_state.Vcpu_running vid -> (
            match Hashtbl.find_opt t.placed core with
            | Some v when v.Vcpu.vid = vid ->
                if not (Kernel.is_backed (kcpu_of t v)) then
                  add "core %d runs vid %d but its kcpu is not backed" core vid
            | Some v ->
                add "core %d runs vid %d but placed map says vid %d" core vid
                  v.Vcpu.vid
            | None ->
                let borrowed =
                  t.borrowed_cores.(core)
                  && List.exists
                       (fun v ->
                         v.Vcpu.vid = vid
                         && on_core v core)
                       t.vcpu_list
                in
                if not borrowed then
                  add "core %d runs vid %d but no placement records it" core vid)
        | Core_state.Dp_running | Core_state.Dp_counting | Core_state.Dp_parked
          ->
            if Hashtbl.mem t.placed core then
              add "data-plane core %d still has a placed vCPU" core
        | Core_state.Offline | Core_state.Switching _ | Core_state.Cp_dedicated
          ->
            ()
      done;
      List.rev !out);
  Core_state.add_invariant t.cs ~name:"dp-view" (fun () ->
      Hashtbl.fold
        (fun core dp acc ->
          let coherent =
            match (Core_state.get t.cs ~core, Dp_service.state dp) with
            | Core_state.Dp_running, Dp_service.Processing
            | Core_state.Dp_counting, Dp_service.Counting
            | Core_state.Dp_parked, Dp_service.Idle_parked
            | ( ( Core_state.Offline | Core_state.Vcpu_running _
                | Core_state.Switching _ | Core_state.Cp_dedicated ),
                Dp_service.Yielded ) ->
                true
            | _, _ -> false
          in
          if coherent then acc
          else
            Printf.sprintf "service on core %d disagrees with the core state"
              core
            :: acc)
        t.dps []);
  Core_state.add_invariant t.cs ~name:"state-table-mirror" (fun () ->
      let ipi = (Machine.config t.machine).Machine.ipi_latency in
      let out = ref [] in
      for core = 0 to Core_state.cores t.cs - 1 do
        let expected =
          match Core_state.get t.cs ~core with
          | Core_state.Vcpu_running _
          | Core_state.Switching Core_state.From_dp ->
              State_table.V_state
          | _ -> State_table.P_state
        in
        if
          State_table.get t.table ~core <> expected
          && Sim.now t.sim - Core_state.since t.cs ~core > ipi
        then
          out :=
            Printf.sprintf "core %d mirror lags beyond the IPI latency" core
            :: !out
      done;
      List.rev !out)

let create ?tenants config machine kernel softirq sw table recovery =
  (* The platform passes its one shared mutable table under churn so
     lane ids here line up with the registry; static callers let the
     default derive a fresh (then effectively immutable) one. *)
  let tenant_table =
    match tenants with Some tbl -> tbl | None -> Config.tenant_table config
  in
  let weights =
    Array.init (Tenant.count tenant_table) (fun id ->
        (Tenant.get tenant_table id).Tenant.weight)
  in
  let ctr = Machine.counters machine in
  let cores = Machine.physical_cores machine in
  let cell name = { ch = Counters.handle ctr name; cl = Counters.lane ctr name } in
  let cells =
    {
      c_placements = cell "sched.placements";
      c_slice_expiries = cell "sched.slice_expiries";
      c_halt_exits = cell "sched.halt_exits";
      c_evict_probe = cell "sched.evictions.probe";
      c_evict_pending = cell "sched.evictions.pending";
      c_evict_halt = cell "sched.evictions.halt";
      c_evict_drain = cell "sched.evictions.drain";
      c_evict_other = Hashtbl.create 4;
      c_grant_ns = cell "sched.grant_ns";
      h_grant_after_retire = Counters.handle ctr "sched.grant_after_retire";
      h_rotations = Counters.handle ctr "sched.rotations";
      h_rescues = Counters.handle ctr "sched.rescues";
      h_borrows = Counters.handle ctr "sched.borrows";
      h_borrow_retries = Counters.handle ctr "sched.borrow_retries";
      h_unsafe = Counters.handle ctr "sched.unsafe_suspensions";
    }
  in
  let t =
    {
      config;
      sim = Machine.sim machine;
      machine;
      ctr;
      cells;
      cs = Machine.core_state machine;
      kernel;
      softirq;
      sw;
      table;
      recovery;
      pending_place = Array.make cores None;
      vcpu_list = [];
      by_kcpu = [||];
      dps = Hashtbl.create 16;
      placed = Hashtbl.create 16;
      slice_timers = Array.make cores None;
      runq = Wsched.create ~weights ~classes:(List.length Tenant.all_classes);
      in_runq = [||];
      tag_tenants = Tenant.is_multi tenant_table;
      borrowing = Hashtbl.create 16;
      borrowed_cores = Array.make cores false;
      cp_pcpus = [];
      next_borrow = 0;
      place_gate = None;
      s_placements = 0;
      s_probe_evictions = 0;
      s_pending_evictions = 0;
      s_halt_exits = 0;
      s_rotations = 0;
      s_lock_rescues = 0;
      s_borrows = 0;
      s_unsafe = 0;
    }
  in
  Kernel.set_work_available_hook kernel (fun kcpu_id -> on_work_available t kcpu_id);
  Kernel.set_cpu_idle_hook kernel (fun kcpu_id -> on_cpu_idle t kcpu_id);
  install_invariants t;
  (* Degraded mode = static partitioning: on engage, return every
     co-scheduled data-plane core to its service. Lock-bound vCPUs are
     left for the watchdog's rescue rung — lock safety trumps
     partitioning. On re-arm, the preserved runqueue repopulates parked
     cores immediately. Registered unconditionally (it schedules
     nothing): degraded mode can now be entered two ways — the fault
     window under [resilience], or the overload governor's forced hold —
     and both must statically partition. *)
  Recovery.on_engage recovery (fun () ->
      let placed =
        Hashtbl.fold (fun core v acc -> (core, v) :: acc) t.placed []
      in
      List.iter
        (fun (core, v) ->
          if
            Option.is_none t.pending_place.(core)
            && runs_vid t ~core v.Vcpu.vid
            && not (lockbound t v)
          then evict_to_dp t v core ~cause:Core_state.Watchdog)
        placed);
  Recovery.on_rearm recovery (fun () ->
      List.iter (fun v -> try_place_parked t v) t.vcpu_list);
  (* The watchdog is the safety net that unsticks lock-bound vCPUs once
     degraded mode has evicted everything else. The overload governor's
     forced Static_partition depends on it exactly like the fault window
     does: without it, a suspended lock holder leaves its spinners
     burning every CP pCPU and the ladder can never drain the backlog it
     is waiting on. *)
  if config.Config.resilience || config.Config.overload then watchdog_loop t;
  t

(* Registration is O(1): the list is kept newest-first and reversed on
   read, so registering n vCPUs is linear overall instead of the quadratic
   append-per-add it used to be. *)
(* [a], extended with [fill] where needed so that [i] is an index. *)
let cover a i fill =
  if i < Array.length a then a
  else begin
    let b = Array.make (Int.max (i + 1) (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let add_vcpu t v =
  t.vcpu_list <- v :: t.vcpu_list;
  t.by_kcpu <- cover t.by_kcpu v.Vcpu.kcpu None;
  t.by_kcpu.(v.Vcpu.kcpu) <- Some v;
  t.in_runq <- cover t.in_runq v.Vcpu.vid false

let vcpus t = List.rev t.vcpu_list

let register_dp t dp =
  let core = Dp_service.core dp in
  Hashtbl.replace t.dps core dp;
  Softirq.register t.softirq ~cpu:core ~vector:Softirq.vector_taichi (fun () ->
      on_place_softirq t core);
  let hooks = Dp_service.hooks dp in
  hooks.Dp_service.idle_threshold <- (fun () -> Sw_probe.threshold t.sw ~core);
  hooks.Dp_service.idle_detected <- (fun dp -> on_dp_idle t dp)

let set_cp_pcpus t ids =
  t.cp_pcpus <- ids;
  (* Dedicated CP pCPUs that nothing brought up yet become CP-occupied on
     the authoritative state machine, so a later borrow transitions from a
     truthful state. The platform may already have done this. *)
  List.iter
    (fun id ->
      if
        id >= 0
        && id < Core_state.cores t.cs
        && Core_state.get t.cs ~core:id = Core_state.Offline
      then
        transition t ~core:id ~cause:Core_state.Hotplug Core_state.Cp_dedicated)
    ids

let placed_vcpu t ~core = Hashtbl.find_opt t.placed core
let set_place_gate t gate = t.place_gate <- gate

let granted_ns t ~tenant = Wsched.granted t.runq ~tenant

(* Retry placement of every vCPU with pending work — the overload
   governor's path after a ladder relax reopens the gate. *)
let kick_runnable t = List.iter (fun v -> try_place_parked t v) t.vcpu_list

(* --- tenant churn -------------------------------------------------------- *)

let admit_tenant t ~weight = Wsched.admit t.runq ~weight

let tenant_vcpus t ~tenant =
  List.filter (fun v -> v.Vcpu.tenant = tenant) (List.rev t.vcpu_list)

(* Move a quiesced vCPU between a tenant and the spare pool (tenant -1).
   The lifecycle only calls this on vCPUs it has verified unplaced,
   unqueued and workless, so no weighted-queue entry or counter mirror can
   still carry the old id. *)
let reassign_vcpu t v ~tenant ~cls_rank =
  if Vcpu.is_placed v || t.in_runq.(v.Vcpu.vid)
     || Hashtbl.mem t.borrowing v.Vcpu.vid
  then
    invalid_arg
      (Printf.sprintf "Vcpu_sched.reassign_vcpu: vid %d is not quiescent"
         v.Vcpu.vid);
  v.Vcpu.tenant <- tenant;
  v.Vcpu.cls_rank <- cls_rank

(* Everything still queued for a draining tenant at force time: pull the
   entries out of the weighted queue so retirement can proceed. The
   vCPUs themselves are handed back for the caller to tear down. *)
let flush_tenant t ~tenant =
  let flushed = Wsched.flush t.runq ~tenant in
  List.iter (fun v -> t.in_runq.(v.Vcpu.vid) <- false) flushed;
  flushed

(* Force-evict a draining tenant's placed vCPUs and end its borrows: the
   escalation half of the drain protocol. Lock-bound guests are NOT
   rescued back onto a core — their tasks are already cancelled, so the
   usual circular-wait hazard the rescue exists for cannot bite; they are
   suspended unbacked and reaped at the next preemptible boundary. *)
let force_evict_tenant t ~tenant =
  let placed = Hashtbl.fold (fun core v acc -> (core, v) :: acc) t.placed [] in
  List.iter
    (fun (core, v) ->
      if
        v.Vcpu.tenant = tenant
        && Option.is_none t.pending_place.(core)
        && runs_vid t ~core v.Vcpu.vid
        && not (Hashtbl.mem t.borrowing v.Vcpu.vid)
      then begin
        if lockbound t v then begin
          (* Suspend unbacked instead of [evict_to_dp]'s rescue path. *)
          count_v t v t.cells.c_evict_drain;
          if tracing t then
            emitf t ~core ~category:Trace.Cat.sched_evict "vid=%d kind=drain"
              v.Vcpu.vid;
          unback t v core;
          transition t ~core ~cause:Core_state.Watchdog
            (Core_state.Switching Core_state.To_dp);
          t.s_unsafe <- t.s_unsafe + 1;
          count t t.cells.h_unsafe;
          Dp_service.resume (Hashtbl.find t.dps core)
            ~switch_cost:(world_switch t)
        end
        else evict_to_dp t v core ~cause:Core_state.Watchdog
      end)
    placed;
  let borrows = Hashtbl.fold (fun vid () acc -> vid :: acc) t.borrowing [] in
  List.iter
    (fun vid ->
      match List.find_opt (fun v -> v.Vcpu.vid = vid) t.vcpu_list with
      | Some v when v.Vcpu.tenant = tenant -> (
          match v.Vcpu.placement with
          | Vcpu.On_core cp_id when runs_vid t ~core:cp_id vid ->
              force_end_borrow t v cp_id
          | Vcpu.On_core _ | Vcpu.Unplaced -> ())
      | Some _ | None -> ())
    borrows

(* What still stands between a draining tenant and quiescence, as
   human-readable receipts. Empty = the vCPU side is quiet; the same list
   feeds both the drain poll and the post-run orphan audit. *)
let quiesce_violations t ~tenant =
  List.concat_map
    (fun v ->
      if v.Vcpu.tenant <> tenant then []
      else
        let say fmt = Printf.ksprintf (fun s -> [ s ]) fmt in
        if Vcpu.is_placed v then say "vid %d still placed" v.Vcpu.vid
        else if Hashtbl.mem t.borrowing v.Vcpu.vid then
          say "vid %d still borrowing" v.Vcpu.vid
        else if t.in_runq.(v.Vcpu.vid) then
          say "vid %d still queued" v.Vcpu.vid
        else if has_work t v then say "vid %d still has work" v.Vcpu.vid
        else [])
    t.vcpu_list

let retire_tenant t ~tenant = Wsched.retire t.runq ~tenant

let stats t =
  {
    placements = t.s_placements;
    probe_evictions = t.s_probe_evictions;
    pending_evictions = t.s_pending_evictions;
    halt_exits = t.s_halt_exits;
    rotations = t.s_rotations;
    lock_rescues = t.s_lock_rescues;
    borrows = t.s_borrows;
    unsafe_suspensions = t.s_unsafe;
  }
