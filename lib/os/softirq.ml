open Taichi_engine
open Taichi_hw

let vectors = 64

(* Handlers and pending flags are flat arrays indexed by
   [cpu * vectors + vector], grown by CPU on demand: a raise is an array
   index, and a coalesced raise allocates nothing. *)
type t = {
  sim : Sim.t;
  machine : Machine.t;
  dispatch_cost : Time_ns.t;
  mutable handlers : (unit -> unit) option array;
  mutable pending : bool array;
  h_raised : Counters.handle;
  mutable raised : int;
  mutable handled : int;
  mutable coalesced : int;
}

let vector_taichi = 42

let create ?(dispatch_cost = Time_ns.ns 200) machine =
  {
    sim = Machine.sim machine;
    machine;
    dispatch_cost;
    handlers = [||];
    pending = [||];
    h_raised = Counters.handle (Machine.counters machine) "softirq.raised";
    raised = 0;
    handled = 0;
    coalesced = 0;
  }

let key ~cpu ~vector =
  if cpu < 0 || vector < 0 || vector >= vectors then
    invalid_arg
      (Printf.sprintf "Softirq: bad cpu %d or vector %d (vectors 0..%d)" cpu
         vector (vectors - 1));
  (cpu * vectors) + vector

let ensure t k =
  let n = Array.length t.pending in
  if k >= n then begin
    let m = Int.max (k + vectors - (k mod vectors)) (2 * n) in
    let handlers = Array.make m None and pending = Array.make m false in
    Array.blit t.handlers 0 handlers 0 n;
    Array.blit t.pending 0 pending 0 n;
    t.handlers <- handlers;
    t.pending <- pending
  end

let register t ~cpu ~vector f =
  let k = key ~cpu ~vector in
  ensure t k;
  t.handlers.(k) <- Some f

let raise_softirq t ~cpu ~vector =
  let k = key ~cpu ~vector in
  ensure t k;
  t.raised <- t.raised + 1;
  Counters.incr_h (Machine.counters t.machine) t.h_raised;
  (let trace = Machine.trace t.machine in
   if Trace.enabled trace then
     let core =
       if cpu < Machine.physical_cores t.machine then cpu else Trace.no_core
     in
     Trace.emitf trace ~time:(Sim.now t.sim) ~core ~category:Trace.Cat.softirq
       "raise cpu=%d vec=%d" cpu vector);
  if t.pending.(k) then t.coalesced <- t.coalesced + 1
  else begin
    t.pending.(k) <- true;
    ignore
      (Sim.after t.sim t.dispatch_cost (fun () ->
           t.pending.(k) <- false;
           if cpu < Machine.physical_cores t.machine then
             Accounting.charge (Machine.accounting t.machine) ~core:cpu
               Accounting.Os t.dispatch_cost;
           match t.handlers.(k) with
           | Some f ->
               t.handled <- t.handled + 1;
               f ()
           | None -> ()))
  end

let pending t ~cpu ~vector =
  let k = key ~cpu ~vector in
  k < Array.length t.pending && t.pending.(k)

let raised_count t = t.raised
let handled_count t = t.handled
let coalesced_count t = t.coalesced
