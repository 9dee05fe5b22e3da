open Taichi_engine
open Taichi_hw
open Taichi_accel

type t = {
  config : Config.t;
  machine : Machine.t;
  sim : Sim.t;
  table : State_table.t;
  sched : Vcpu_sched.t;
  pending : bool array;  (* by core: probe IRQ in flight *)
  h_triggers : Counters.handle;
  h_suppressed : Counters.handle;
  mutable triggers : int;
  mutable suppressed : int;
  mutable suppressor : (core:int -> bool) option;
}

let fire t ~core =
  t.pending.(core) <- true;
  t.triggers <- t.triggers + 1;
  Counters.incr_h (Machine.counters t.machine) t.h_triggers;
  (let trace = Machine.trace t.machine in
   if Trace.enabled trace then
     Trace.emitf trace ~time:(Sim.now t.sim) ~core ~category:Trace.Cat.probe_hw
       "irq scheduled in %dns" t.config.Config.irq_latency);
  ignore
    (Sim.after t.sim t.config.Config.irq_latency (fun () ->
         t.pending.(core) <- false;
         Vcpu_sched.on_probe_irq t.sched ~core))

let install config machine table pipeline sched =
  let t =
    {
      config;
      machine;
      sim = Machine.sim machine;
      table;
      sched;
      pending = Array.make (Machine.physical_cores machine) false;
      h_triggers = Counters.handle (Machine.counters machine) "probe.hw.triggers";
      h_suppressed =
        Counters.handle (Machine.counters machine) "probe.hw.suppressed";
      triggers = 0;
      suppressed = 0;
      suppressor = None;
    }
  in
  if config.Config.hw_probe then
    Pipeline.set_probe_hook pipeline
      (Some
         (fun pkt ->
           let core = pkt.Packet.dst_core in
           match State_table.get t.table ~core with
           | State_table.P_state -> ()
           | State_table.V_state ->
               if t.pending.(core) then begin
                 t.suppressed <- t.suppressed + 1;
                 Counters.incr_h (Machine.counters t.machine) t.h_suppressed
               end
               else
                 (* The injected suppressor models the accelerator failing
                    to raise the IRQ it should have: the packet simply goes
                    undetected and the software probe / slice expiry must
                    cover for it. *)
                 let suppressed_by_fault =
                   match t.suppressor with
                   | Some f -> f ~core
                   | None -> false
                 in
                 if not suppressed_by_fault then fire t ~core));
  t

let set_suppressor t f = t.suppressor <- f

(* A misfire is a spurious probe IRQ: the accelerator interrupts a core the
   scheduler believes needs no eviction. The normal pending dedup still
   applies so at most one IRQ per core is in flight. *)
let misfire t ~core =
  if not t.pending.(core) then fire t ~core

let triggers t = t.triggers
let suppressed t = t.suppressed
