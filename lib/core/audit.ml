open Taichi_engine
open Taichi_hw
open Taichi_os
open Taichi_virt

type report = {
  task_name : string;
  audited_for : Time_ns.t;
  guest_cpu_time : Time_ns.t;
  kernel_entries : int;
  lock_acquisitions : int;
  vm_exits_observed : int;
}

type t = {
  taichi : Taichi.t;
  sim : Sim.t;
  mutable active : bool;
  mutable completed : int;
}

let create taichi =
  { taichi; sim = Machine.sim (Taichi.machine taichi); active = false; completed = 0 }

(* Not [List.mem]: Stdlib's compares polymorphically, a C call per
   element. *)
let rec mem_cid cid = function
  | [] -> false
  | c :: rest -> Int.equal c cid || mem_cid cid rest

let total_exits t =
  List.fold_left (fun acc v -> acc + Vcpu.total_exits v) 0 (Taichi.vcpus t.taichi)

let start t task ~duration ~on_report =
  if t.active then invalid_arg "Audit.start: an audit is already running";
  t.active <- true;
  let saved_affinity = task.Task.affinity in
  let domain = List.map (fun v -> v.Vcpu.kcpu) (Taichi.vcpus t.taichi) in
  let cpu0 = task.Task.cpu_time in
  let k0 = task.Task.kernel_entries in
  let l0 = task.Task.lock_acquisitions in
  let e0 = total_exits t in
  let t0 = Sim.now t.sim in
  (* Migration into the auditing domain: change the affinity and kick the
     task off any physical CPU it currently occupies. *)
  task.Task.affinity <- domain;
  (match task.Task.cpu with
  | Some cid ->
      let c = Kernel.cpu (Taichi.kernel t.taichi) cid in
      if not (mem_cid cid domain) then
        Kernel.requeue_if_preemptible (Taichi.kernel t.taichi) c
  | None -> ());
  ignore
    (Sim.after t.sim duration (fun () ->
         (* Transparent restoration. *)
         task.Task.affinity <- saved_affinity;
         (match task.Task.cpu with
         | Some cid when saved_affinity <> [] && not (mem_cid cid saved_affinity)
           ->
             let c = Kernel.cpu (Taichi.kernel t.taichi) cid in
             Kernel.requeue_if_preemptible (Taichi.kernel t.taichi) c
         | Some _ | None -> ());
         t.active <- false;
         t.completed <- t.completed + 1;
         on_report
           {
             task_name = task.Task.tname;
             audited_for = Sim.now t.sim - t0;
             guest_cpu_time = task.Task.cpu_time - cpu0;
             kernel_entries = task.Task.kernel_entries - k0;
             lock_acquisitions = task.Task.lock_acquisitions - l0;
             vm_exits_observed = total_exits t - e0;
           }))

let auditing t = t.active
let audits_completed t = t.completed
