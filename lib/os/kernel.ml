open Taichi_engine
open Taichi_hw

type config = {
  timeslice : Time_ns.t;
  context_switch_cost : Time_ns.t;
  wake_latency : Time_ns.t;
  boot_delay : Time_ns.t;
  resched_vector : Lapic.vector;
  boot_vector : Lapic.vector;
}

let default_config =
  {
    timeslice = Time_ns.ms 3;
    context_switch_cost = Time_ns.us 2;
    wake_latency = Time_ns.us 1;
    boot_delay = Time_ns.ms 10;
    resched_vector = 0xFD;
    boot_vector = 0xF0;
  }

type cpu = {
  cid : int;
  kind : [ `Physical | `Virtual ];
  mutable online : bool;
  mutable backed : bool;
  mutable available : bool;
  mutable backing_core : int option;
  mutable speed_tax : float;
  rq_rt : Task.t Queue.t;
  rq_normal : Task.t Queue.t;
  mutable cur : Task.t option;
  (* In-flight Run bookkeeping; the remaining work itself lives on the task
     ([pending_work]) so preempted tasks can migrate and resume. *)
  mutable run_handle : Sim.handle option;
  mutable run_started : Time_ns.t;
  mutable spin_since : Time_ns.t option;
  mutable slice_timer : Sim.handle option;
  mutable need_resched : bool;
  mutable reclaimers : (unit -> unit) list;
  mutable reclaim_requested_at : Time_ns.t;
  mutable on_online : (unit -> unit) option;
  lapic : Lapic.t;
}


type stats = {
  context_switches : int;
  preemptions : int;
  deferred_preemptions : int;
  steals : int;
  migrations : int;
  slice_expiries : int;
  reclaim_waits : int;
}

type t = {
  sim : Sim.t;
  machine : Machine.t;
  config : config;
  mutable cpus : cpu option array;  (* by cpu id; ids may be sparse *)
  (* Remaining work of a preempted/paused Run, keyed by tid. Per kernel
     instance: two systems (or two domains) must never share run
     bookkeeping. *)
  pending : (int, Time_ns.t * Task.exec_mode) Hashtbl.t;
  mutable cpu_order : int list;
  mutable work_available_hook : int -> unit;
  mutable cpu_idle_hook : int -> unit;
  mutable s_context_switches : int;
  mutable s_preemptions : int;
  mutable s_deferred : int;
  mutable s_steals : int;
  mutable s_migrations : int;
  mutable s_slice_expiries : int;
  mutable s_reclaim_waits : int;
  mutable s_cancellations : int;
  mutable s_max_deferred_wait : Time_ns.t;
  (* kernel.* counter handles, interned at [create]: per-event increments
     (context switches, steals) must not hash strings. *)
  h_context_switches : Counters.handle;
  h_steals : Counters.handle;
  h_cancellations : Counters.handle;
  h_migrations : Counters.handle;
  h_reclaims : Counters.handle;
}

let create ?(config = default_config) machine =
  let h = Counters.handle (Machine.counters machine) in
  {
    sim = Machine.sim machine;
    machine;
    config;
    cpus = [||];
    pending = Hashtbl.create 64;
    cpu_order = [];
    work_available_hook = (fun _ -> ());
    cpu_idle_hook = (fun _ -> ());
    s_context_switches = 0;
    s_preemptions = 0;
    s_deferred = 0;
    s_steals = 0;
    s_migrations = 0;
    s_slice_expiries = 0;
    s_reclaim_waits = 0;
    s_cancellations = 0;
    s_max_deferred_wait = 0;
    h_context_switches = h "kernel.context_switches";
    h_steals = h "kernel.steals";
    h_cancellations = h "kernel.cancellations";
    h_migrations = h "kernel.migrations";
    h_reclaims = h "kernel.reclaims";
  }

let sim t = t.sim
let machine t = t.machine
let config t = t.config
let cpu t id =
  if id < 0 || id >= Array.length t.cpus then raise Not_found;
  match t.cpus.(id) with Some c -> c | None -> raise Not_found

let cpu_kind c = c.kind
let is_online c = c.online
let is_backed c = c.backed
let is_available c = c.available
let current c = c.cur
let runqueue_length c = Queue.length c.rq_rt + Queue.length c.rq_normal
let cpu_has_work c = c.cur <> None || runqueue_length c > 0
let set_speed_tax c tax = c.speed_tax <- tax
let set_work_available_hook t f = t.work_available_hook <- f
let set_cpu_idle_hook t f = t.cpu_idle_hook <- f

let stats t =
  {
    context_switches = t.s_context_switches;
    preemptions = t.s_preemptions;
    deferred_preemptions = t.s_deferred;
    steals = t.s_steals;
    migrations = t.s_migrations;
    slice_expiries = t.s_slice_expiries;
    reclaim_waits = t.s_reclaim_waits;
  }

let max_deferred_wait t = t.s_max_deferred_wait

(* --- observability ------------------------------------------------------ *)

let trace t = Machine.trace t.machine
let tracing t = Trace.enabled (trace t)
let count t h = Counters.incr_h (Machine.counters t.machine) h

(* For trace attribution a kernel CPU maps to the physical core currently
   backing it; unbacked vCPUs produce global (core-less) records. *)
let trace_core c =
  match c.backing_core with Some core -> core | None -> Trace.no_core

(* --- accounting ------------------------------------------------------- *)

let charge t c cls d =
  match c.backing_core with
  | Some core when d > 0 -> Accounting.charge (Machine.accounting t.machine) ~core cls d
  | Some _ | None -> ()

let scale c work =
  if c.speed_tax = 0.0 then work
  else work + int_of_float (float_of_int work *. c.speed_tax)

let unscale c wall =
  if c.speed_tax = 0.0 then wall
  else int_of_float (float_of_int wall /. (1.0 +. c.speed_tax))

(* --- run bookkeeping --------------------------------------------------- *)

let stop_spin_accounting t c =
  match c.spin_since with
  | Some since ->
      let d = Sim.now t.sim - since in
      charge t c Accounting.Spin d;
      (match c.cur with Some task -> task.Task.spin_time <- task.Task.spin_time + d | None -> ());
      c.spin_since <- None
  | None -> ()

let pause_run t c =
  match c.run_handle with
  | Some h ->
      Sim.cancel t.sim h;
      c.run_handle <- None;
      let task = match c.cur with Some x -> x | None -> assert false in
      let elapsed = Sim.now t.sim - c.run_started in
      let done_work = unscale c elapsed in
      (match Hashtbl.find_opt t.pending task.Task.tid with
      | Some (left, mode) ->
          Hashtbl.replace t.pending task.Task.tid (Int.max 0 (left - done_work), mode)
      | None -> ());
      task.Task.cpu_time <- task.Task.cpu_time + done_work;
      charge t c Accounting.Cp_work elapsed
  | None -> ()

(* --- work stealing ------------------------------------------------------- *)

(* [List.mem] would compare through Stdlib's polymorphic [compare], a C
   call per element on every steal scan. *)
let rec mem_cid cid = function
  | [] -> false
  | c :: rest -> Int.equal c cid || mem_cid cid rest

let admissible cid task = task.Task.affinity = [] || mem_cid cid task.Task.affinity

exception Admissible

(* Stops at the first admissible task. [check] is closed, so the scan
   allocates nothing. *)
let has_admissible cid q =
  let check cid task =
    if admissible cid task then raise_notrace Admissible else cid
  in
  match Queue.fold check cid q with _ -> false | exception Admissible -> true

(* The victim of a steal onto [cid]: of the listed CPUs holding a task
   admissible on [cid], the first with the longest run queues. Only
   queues longer than the best so far are scanned. *)
let rec steal_victim t cid best best_n = function
  | [] -> best
  | id :: rest when id = cid -> steal_victim t cid best best_n rest
  | id :: rest ->
      let c' = cpu t id in
      let n = runqueue_length c' in
      if
        n > best_n
        && (has_admissible cid c'.rq_rt || has_admissible cid c'.rq_normal)
      then steal_victim t cid (Some c') n rest
      else steal_victim t cid best best_n rest

(* --- forward-declared mutually recursive scheduler core ---------------- *)

let rec dispatch t c =
  if c.online && c.backed && c.available && c.cur = None then begin
    match pick_next t c with
    | None ->
        (* [pick_next] already tried to steal, so no other CPU holds a
           task admissible here: the CPU idles until a wakeup, placement
           or resched IPI dispatches it again. *)
        t.cpu_idle_hook c.cid
    | Some task ->
        t.s_context_switches <- t.s_context_switches + 1;
        count t t.h_context_switches;
        c.cur <- Some task;
        task.Task.state <- Task.Running;
        task.Task.cpu <- Some c.cid;
        charge t c Accounting.Switch t.config.context_switch_cost;
        arm_slice t c;
        let expected = task in
        ignore
          (Sim.after t.sim t.config.context_switch_cost (fun () ->
               match c.cur with
               | Some cur when cur == expected && c.backed -> advance t c
               | Some _ | None -> ()))
  end

and pick_next t c =
  let pop_admissible q =
    (* Tasks are admissible on their queuing CPU by construction. *)
    if Queue.is_empty q then None else Some (Queue.pop q)
  in
  match pop_admissible c.rq_rt with
  | Some task -> Some task
  | None -> (
      match pop_admissible c.rq_normal with
      | Some task -> Some task
      | None -> try_steal t c)

and try_steal t c =
  match steal_victim t c.cid None 0 t.cpu_order with
  | None -> None
  | Some victim ->
      let steal_from q =
        let stolen = ref None in
        let keep = Queue.create () in
        Queue.iter
          (fun x ->
            if !stolen = None && admissible c.cid x then stolen := Some x
            else Queue.push x keep)
          q;
        Queue.clear q;
        Queue.transfer keep q;
        !stolen
      in
      let found =
        match steal_from victim.rq_rt with
        | Some x -> Some x
        | None -> steal_from victim.rq_normal
      in
      (match found with
      | Some task ->
          t.s_steals <- t.s_steals + 1;
          count t t.h_steals;
          if tracing t then
            Trace.emitf (trace t) ~time:(Sim.now t.sim) ~core:(trace_core c)
              ~category:Trace.Cat.kernel_steal "cpu=%d task=%s from=%d" c.cid
              task.Task.tname victim.cid;
          task.Task.cpu <- Some c.cid
      | None -> ());
      found

and arm_slice t c =
  (match c.slice_timer with Some h -> Sim.cancel t.sim h | None -> ());
  c.slice_timer <- None;
  match c.cur with
  | Some { Task.prio = Task.Normal; _ } ->
      c.slice_timer <- Some (Sim.after t.sim t.config.timeslice (fun () -> slice_expiry t c))
  | Some { Task.prio = Task.Rt; _ } | None -> ()

and slice_expiry t c =
  c.slice_timer <- None;
  match c.cur with
  | None -> ()
  | Some task ->
      t.s_slice_expiries <- t.s_slice_expiries + 1;
      if runqueue_length c > 0 then begin
        if Task.nonpreemptible task then begin
          c.need_resched <- true;
          t.s_deferred <- t.s_deferred + 1
        end
        else requeue_current t c
      end
      else arm_slice t c

and requeue_current t c =
  match c.cur with
  | None -> ()
  | Some task ->
      t.s_preemptions <- t.s_preemptions + 1;
      pause_run t c;
      task.Task.state <- Task.Runnable;
      c.cur <- None;
      c.need_resched <- false;
      (match task.Task.prio with
      | Task.Rt -> Queue.push task c.rq_rt
      | Task.Normal -> Queue.push task c.rq_normal);
      dispatch t c

and advance t c =
  match c.cur with
  | None -> dispatch t c
  | Some task -> (
      match task.Task.state with
      | Task.Spinning _ -> ()
      | _ when c.run_handle <> None -> ()
      | _ when not c.backed -> ()
      | _ -> run_ops t c task 0)

and run_ops t c task guard =
  if guard > 100_000 then
    failwith
      (Printf.sprintf "Kernel: task %s issued too many zero-cost ops" task.Task.tname);
  (* Cancellation is honoured only at preemptible boundaries: a task
     holding a lock or inside a non-preemptible section finishes that
     section first (its np bookkeeping unwinds through the normal path),
     then exits here instead of fetching its next operation. Any paused
     preemptible Run remainder is discarded. *)
  if task.Task.cancelled && not (Task.nonpreemptible task) then begin
    Hashtbl.remove t.pending task.Task.tid;
    t.s_cancellations <- t.s_cancellations + 1;
    count t t.h_cancellations;
    exit_task t c task
  end
  else
  (* A paused Run resumes before new ops are requested. *)
  match Hashtbl.find_opt t.pending task.Task.tid with
  | Some (left, _mode) when left > 0 -> start_run t c task left
  | Some (_, mode) ->
      Hashtbl.remove t.pending task.Task.tid;
      finish_run_effects t c task mode ~continue_guard:guard
  | None -> (
      let op = task.Task.step task in
      match op with
      | Task.Run { duration; mode } ->
          (match mode with
          | Task.Kernel | Task.Kernel_nonpreemptible ->
              task.Task.kernel_entries <- task.Task.kernel_entries + 1
          | Task.User -> ());
          if mode = Task.Kernel_nonpreemptible then
            task.Task.np_depth <- task.Task.np_depth + 1;
          Hashtbl.replace t.pending task.Task.tid (duration, mode);
          start_run t c task duration
      | Task.Acquire lock -> (
          match lock.Task.owner with
          | None ->
              lock.Task.owner <- Some task;
              lock.Task.acquisitions <- lock.Task.acquisitions + 1;
              task.Task.lock_acquisitions <- task.Task.lock_acquisitions + 1;
              task.Task.locks_held <- task.Task.locks_held + 1;
              run_ops t c task (guard + 1)
          | Some _ ->
              lock.Task.contentions <- lock.Task.contentions + 1;
              Queue.push task lock.Task.waiters;
              task.Task.state <- Task.Spinning lock;
              c.spin_since <- Some (Sim.now t.sim))
      | Task.Release lock ->
          (match lock.Task.owner with
          | Some o when o == task -> ()
          | Some _ | None ->
              failwith
                (Printf.sprintf "Kernel: %s released lock %s it does not own"
                   task.Task.tname lock.Task.lk_name));
          task.Task.locks_held <- task.Task.locks_held - 1;
          lock.Task.owner <- None;
          (if not (Queue.is_empty lock.Task.waiters) then begin
             let w = Queue.pop lock.Task.waiters in
             grant_lock t lock w
           end);
          after_np_boundary t c task guard
      | Task.Sleep_for d ->
          task.Task.state <- Task.Sleeping;
          task.Task.cpu <- None;
          c.cur <- None;
          ignore (Sim.after t.sim d (fun () -> wake t ~src:c.cid task));
          leave_cpu t c
      | Task.Block wq ->
          if wq.Task.credits > 0 then begin
            wq.Task.credits <- wq.Task.credits - 1;
            run_ops t c task (guard + 1)
          end
          else begin
            task.Task.state <- Task.Blocked wq;
            task.Task.cpu <- None;
            wq.Task.sleepers <- wq.Task.sleepers @ [ task ];
            c.cur <- None;
            leave_cpu t c
          end
      | Task.Signal wq ->
          signal_internal t ~src:c.cid wq;
          run_ops t c task (guard + 1)
      | Task.Exit -> exit_task t c task)

and exit_task t c task =
  task.Task.state <- Task.Dead;
  task.Task.finished_at <- Some (Sim.now t.sim);
  task.Task.cpu <- None;
  c.cur <- None;
  leave_cpu t c

and start_run t c task work =
  c.run_started <- Sim.now t.sim;
  let wall = Int.max 1 (scale c work) in
  c.run_handle <- Some (Sim.after t.sim wall (fun () -> finish_run t c task))

and finish_run t c task =
  c.run_handle <- None;
  let elapsed = Sim.now t.sim - c.run_started in
  charge t c Accounting.Cp_work elapsed;
  match Hashtbl.find_opt t.pending task.Task.tid with
  | None -> assert false
  | Some (left, mode) ->
      task.Task.cpu_time <- task.Task.cpu_time + left;
      Hashtbl.remove t.pending task.Task.tid;
      finish_run_effects t c task mode ~continue_guard:0

and finish_run_effects t c task mode ~continue_guard =
  if mode = Task.Kernel_nonpreemptible then
    task.Task.np_depth <- task.Task.np_depth - 1;
  after_np_boundary t c task continue_guard

(* Called at every point where a task may have just become preemptible:
   honor pending reclaims first, then deferred rescheduling. *)
and after_np_boundary t c task guard =
  if Task.nonpreemptible task then run_ops t c task (guard + 1)
  else if c.reclaimers <> [] then begin
    migrate_out t c task;
    c.cur <- None;
    leave_cpu t c
  end
  else if c.need_resched then begin
    c.need_resched <- false;
    if runqueue_length c > 0 then requeue_current t c
    else run_ops t c task (guard + 1)
  end
  else run_ops t c task (guard + 1)

and migrate_out t c task =
  t.s_migrations <- t.s_migrations + 1;
  count t t.h_migrations;
  if tracing t then
    Trace.emitf (trace t) ~time:(Sim.now t.sim) ~core:(trace_core c)
      ~category:Trace.Cat.kernel_migrate "cpu=%d task=%s" c.cid
      task.Task.tname;
  pause_run t c;
  task.Task.state <- Task.Runnable;
  task.Task.cpu <- None;
  place_task t ~src:c.cid task

and leave_cpu t c =
  if c.reclaimers <> [] then grant_reclaims t c;
  dispatch t c

and grant_reclaims t c =
  (* Current task must already be gone; flush queued tasks elsewhere.
     Drain first: re-placement may legitimately push a task back onto this
     very queue when its affinity admits no other CPU. *)
  assert (c.cur = None);
  let drained = ref [] in
  let drain q =
    Queue.iter (fun task -> drained := task :: !drained) q;
    Queue.clear q
  in
  drain c.rq_rt;
  drain c.rq_normal;
  List.iter
    (fun task ->
      task.Task.cpu <- None;
      t.s_migrations <- t.s_migrations + 1;
      place_task t ~src:c.cid task)
    (List.rev !drained);
  let cbs = List.rev c.reclaimers in
  c.reclaimers <- [];
  let waited = Sim.now t.sim - c.reclaim_requested_at in
  if waited > t.s_max_deferred_wait then t.s_max_deferred_wait <- waited;
  count t t.h_reclaims;
  if tracing t then
    Trace.emitf (trace t) ~time:(Sim.now t.sim) ~core:(trace_core c)
      ~category:Trace.Cat.kernel_reclaim "cpu=%d waited=%d" c.cid waited;
  List.iter (fun cb -> cb ()) cbs

and grant_lock t lock w =
  w.Task.locks_held <- w.Task.locks_held + 1;
  w.Task.lock_acquisitions <- w.Task.lock_acquisitions + 1;
  lock.Task.owner <- Some w;
  lock.Task.acquisitions <- lock.Task.acquisitions + 1;
  (match w.Task.cpu with
  | Some cid -> (
      let wc = cpu t cid in
      match wc.cur with
      | Some cur when cur == w ->
          stop_spin_accounting t wc;
          w.Task.state <- Task.Running;
          ignore (Sim.immediate t.sim (fun () -> advance t wc))
      | Some _ | None -> w.Task.state <- Task.Runnable)
  | None -> w.Task.state <- Task.Runnable)

and signal_internal t ?src wq =
  match wq.Task.sleepers with
  | [] -> wq.Task.credits <- wq.Task.credits + 1
  | first :: rest ->
      wq.Task.sleepers <- rest;
      wake t ?src first

and wake t ?src task =
  match task.Task.state with
  | Task.New | Task.Sleeping | Task.Blocked _ ->
      task.Task.state <- Task.Runnable;
      task.Task.wakeups <- task.Task.wakeups + 1;
      place_task t ?src task
  | Task.Runnable | Task.Running | Task.Spinning _ | Task.Dead -> ()

and place_task t ?src task =
  let allowed c = c.online && admissible c.cid task in
  let candidates =
    List.filter_map
      (fun id ->
        let c = cpu t id in
        if allowed c then Some c else None)
      t.cpu_order
  in
  if candidates = [] then
    failwith
      (Printf.sprintf "Kernel: no online CPU admits task %s" task.Task.tname);
  let score c =
    (* Lower is better: idle backed available CPUs first, then idle
       available (unbacked vCPUs: enqueuing wakes the vCPU scheduler),
       then shortest queue among available, then anything. *)
    if c.available && c.backed && c.cur = None && runqueue_length c = 0 then 0
    else if c.available && c.cur = None && runqueue_length c = 0 then 1
    else if c.available then 2 + runqueue_length c
    else 1000 + runqueue_length c
  in
  let best =
    List.fold_left
      (fun acc c ->
        match acc with
        | None -> Some c
        | Some b -> if score c < score b then Some c else acc)
      None candidates
  in
  let c = match best with Some c -> c | None -> assert false in
  task.Task.cpu <- Some c.cid;
  (match task.Task.prio with
  | Task.Rt -> Queue.push task c.rq_rt
  | Task.Normal -> Queue.push task c.rq_normal);
  if not c.backed then t.work_available_hook c.cid
  else if c.available then begin
    let kick = c.cur = None || (task.Task.prio = Task.Rt && (match c.cur with Some x -> x.Task.prio = Task.Normal | None -> false)) in
    if kick then
      let src = match src with Some s -> s | None -> c.cid in
      Machine.send_ipi t.machine ~src ~dst:c.cid ~vector:t.config.resched_vector
  end

(* --- resched IPI handler ------------------------------------------------ *)

let on_resched t c =
  charge t c Accounting.Os (Time_ns.ns 300);
  match c.cur with
  | None -> dispatch t c
  | Some task ->
      let rt_waiting = not (Queue.is_empty c.rq_rt) in
      if rt_waiting && task.Task.prio = Task.Normal then begin
        if Task.nonpreemptible task then begin
          c.need_resched <- true;
          t.s_deferred <- t.s_deferred + 1
        end
        else requeue_current t c
      end

(* --- public CPU management ---------------------------------------------- *)

let register_cpu t c =
  Machine.register_lapic t.machine c.lapic;
  Lapic.register_handler c.lapic t.config.resched_vector (fun () -> on_resched t c);
  Lapic.register_handler c.lapic t.config.boot_vector (fun () ->
      if not c.online then
        ignore
          (Sim.after t.sim t.config.boot_delay (fun () ->
               c.online <- true;
               (match c.on_online with Some f -> f () | None -> ());
               c.on_online <- None;
               dispatch t c)));
  if c.cid >= Array.length t.cpus then begin
    let a = Array.make (Int.max (c.cid + 1) (2 * Array.length t.cpus)) None in
    Array.blit t.cpus 0 a 0 (Array.length t.cpus);
    t.cpus <- a
  end;
  t.cpus.(c.cid) <- Some c;
  t.cpu_order <- t.cpu_order @ [ c.cid ]

let make_cpu ~id ~kind ~online ~backed ~available ~backing_core =
  {
    cid = id;
    kind;
    online;
    backed;
    available;
    backing_core;
    speed_tax = 0.0;
    rq_rt = Queue.create ();
    rq_normal = Queue.create ();
    cur = None;
    run_handle = None;
    run_started = 0;
    spin_since = None;
    slice_timer = None;
    need_resched = false;
    reclaimers = [];
    reclaim_requested_at = 0;
    on_online = None;
    lapic = Lapic.create ~apic_id:id;
  }

let add_physical_cpu t ?(available = true) ~id () =
  let c =
    make_cpu ~id ~kind:`Physical ~online:true ~backed:true ~available
      ~backing_core:(Some id)
  in
  register_cpu t c;
  c

let add_virtual_cpu t ~id =
  let c =
    make_cpu ~id ~kind:`Virtual ~online:false ~backed:false ~available:true
      ~backing_core:None
  in
  register_cpu t c;
  c

let boot t c ?on_online ~src () =
  c.on_online <- on_online;
  Machine.send_ipi t.machine ~src ~dst:c.cid ~vector:t.config.boot_vector

let set_backing_core _t c core = c.backing_core <- core

let set_backed t c backed =
  if c.backed <> backed then
    if not backed then begin
      (match c.slice_timer with Some h -> Sim.cancel t.sim h | None -> ());
      c.slice_timer <- None;
      pause_run t c;
      stop_spin_accounting t c;
      c.backed <- false
    end
    else begin
      c.backed <- true;
      (match c.cur with
      | Some task -> (
          match task.Task.state with
          | Task.Spinning _ -> c.spin_since <- Some (Sim.now t.sim)
          | _ ->
              arm_slice t c;
              advance t c)
      | None -> dispatch t c)
    end

let lend t c =
  if not c.available then begin
    c.available <- true;
    (* A lent physical core is control-plane occupied from the machine's
       point of view: record it on the authoritative state machine (the
       data-plane service moved the core to [Switching From_dp] when it
       yielded, just before the co-schedule policy called us). Lending a
       core the machine already sees as CP-occupied — a reclaim/lend cycle
       with no data-plane resume in between — changes nothing. *)
    if c.kind = `Physical && c.cid < Machine.physical_cores t.machine then begin
      let cs = Machine.core_state t.machine in
      match Core_state.get cs ~core:c.cid with
      | Core_state.Cp_dedicated -> ()
      | _ ->
          Core_state.transition cs ~core:c.cid ~cause:Core_state.Lend
            Core_state.Cp_dedicated
    end;
    dispatch t c
  end

let reclaim t c ~on_granted =
  c.available <- false;
  match c.cur with
  | None ->
      c.reclaim_requested_at <- Sim.now t.sim;
      c.reclaimers <- [ on_granted ];
      grant_reclaims t c
  | Some task ->
      if Task.nonpreemptible task then begin
        t.s_reclaim_waits <- t.s_reclaim_waits + 1;
        t.s_deferred <- t.s_deferred + 1;
        if c.reclaimers = [] then c.reclaim_requested_at <- Sim.now t.sim;
        c.reclaimers <- on_granted :: c.reclaimers
      end
      else begin
        migrate_out t c task;
        c.cur <- None;
        c.reclaim_requested_at <- Sim.now t.sim;
        c.reclaimers <- on_granted :: c.reclaimers;
        grant_reclaims t c
      end

let requeue_if_preemptible t c =
  match c.cur with
  | Some task when not (Task.nonpreemptible task) && task.Task.state = Task.Running ->
      pause_run t c;
      task.Task.state <- Task.Runnable;
      c.cur <- None;
      (match task.Task.prio with
      | Task.Rt -> Queue.push task c.rq_rt
      | Task.Normal -> Queue.push task c.rq_normal);
      if c.backed && c.available then dispatch t c
  | Some _ | None -> ()

let spawn t task =
  task.Task.spawned_at <- Sim.now t.sim;
  wake t task

let signal t ?src wq = signal_internal t ?src wq
let credits wq = wq.Task.credits
