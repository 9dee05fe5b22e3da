open Taichi_engine

type config = { physical_cores : int; ipi_latency : Time_ns.t }

let default_config = { physical_cores = 12; ipi_latency = Time_ns.ns 500 }

type route = Deliver | Consumed

type fault = Pass | Drop | Delay of Time_ns.t

type t = {
  sim : Sim.t;
  config : config;
  accounting : Accounting.t;
  cache : Cache_model.t;
  trace : Trace.t;
  counters : Counters.t;
  core_state : Core_state.t;
  lapics : (int, Lapic.t) Hashtbl.t;
  mutable interceptor : (src:int -> dst:int -> vector:Lapic.vector -> route) option;
  mutable fault_hook : (dst:int -> vector:Lapic.vector -> fault) option;
  mutable sent : int;
  mutable dropped : int;
  mutable fault_dropped : int;
  mutable fault_delayed : int;
  h_ipi_dropped : Counters.handle;
  h_ipi_delayed : Counters.handle;
}

let create ?(config = default_config) ?trace sim =
  let trace =
    match trace with
    | Some tr -> tr
    | None -> Trace.create ~limit:2_000_000 ~enabled:false ()
  in
  let counters = Counters.create () in
  let h_transitions = Counters.handle counters "core_state.transitions" in
  let h_illegal = Counters.handle counters "core_state.illegal" in
  let core_state =
    Core_state.create ~cores:config.physical_cores ~now:(fun () -> Sim.now sim)
  in
  (* The machine's own subscriber is where [core.state] trace records come
     from: occupancy is derived from authoritative transitions, never
     hand-emitted by the modules that cause them. Several fine-grained
     states map onto one coarse occupancy bucket (e.g. running/counting are
     both "dp"), so emissions are deduplicated per core to keep the trace —
     and the timeline fold over it — free of zero-information records. *)
  let last_emitted = Array.make config.physical_cores Trace.Cat.state_idle in
  Core_state.subscribe core_state (fun ev ->
      Counters.incr_h counters h_transitions;
      if not ev.Core_state.legal then Counters.incr_h counters h_illegal;
      let bucket = Core_state.trace_state ev.Core_state.to_state in
      let core = ev.Core_state.core in
      if not (String.equal bucket last_emitted.(core)) then begin
        last_emitted.(core) <- bucket;
        Trace.emit trace ~time:ev.Core_state.at ~core
          ~category:Trace.Cat.core_state bucket
      end);
  {
    sim;
    config;
    accounting = Accounting.create ~cores:config.physical_cores;
    cache = Cache_model.create ~cores:config.physical_cores ();
    trace;
    counters;
    core_state;
    lapics = Hashtbl.create 32;
    interceptor = None;
    fault_hook = None;
    sent = 0;
    dropped = 0;
    fault_dropped = 0;
    fault_delayed = 0;
    h_ipi_dropped = Counters.handle counters "fault.ipi.dropped";
    h_ipi_delayed = Counters.handle counters "fault.ipi.delayed";
  }

let sim t = t.sim
let config t = t.config
let physical_cores t = t.config.physical_cores
let accounting t = t.accounting
let cache t = t.cache
let trace t = t.trace
let counters t = t.counters
let core_state t = t.core_state

let register_lapic t lapic =
  let id = Lapic.apic_id lapic in
  if Hashtbl.mem t.lapics id then
    invalid_arg (Printf.sprintf "Machine.register_lapic: duplicate id %d" id);
  Hashtbl.replace t.lapics id lapic

let lapic t ~apic_id = Hashtbl.find t.lapics apic_id

let set_ipi_interceptor t hook = t.interceptor <- hook
let set_fault_hook t hook = t.fault_hook <- hook
let fault_injection_active t = t.fault_hook <> None
let iter_lapics t f = Hashtbl.iter (fun _ lapic -> f lapic) t.lapics

(* The fabric fault hook sits between routing and delivery: the send (and
   any interceptor bookkeeping) already happened, so a [Drop] models the
   message dying in the interconnect and a [Delay] models congestion —
   exactly the window the recovery timers in the orchestrator guard. *)
let deliver_raw t ~dst ~vector =
  match Hashtbl.find_opt t.lapics dst with
  | Some lapic -> (
      let deliver_after extra =
        ignore
          (Sim.after t.sim
             (t.config.ipi_latency + extra)
             (fun () -> Lapic.inject lapic vector))
      in
      match t.fault_hook with
      | None -> deliver_after 0
      | Some hook -> (
          match hook ~dst ~vector with
          | Pass -> deliver_after 0
          | Drop ->
              t.fault_dropped <- t.fault_dropped + 1;
              Counters.incr_h t.counters t.h_ipi_dropped;
              Trace.emitf t.trace ~time:(Sim.now t.sim) ~category:Trace.Cat.fault
                "ipi drop dst=%d vec=%d" dst vector
          | Delay extra ->
              t.fault_delayed <- t.fault_delayed + 1;
              Counters.incr_h t.counters t.h_ipi_delayed;
              Trace.emitf t.trace ~time:(Sim.now t.sim) ~category:Trace.Cat.fault
                "ipi delay dst=%d vec=%d extra=%d" dst vector extra;
              deliver_after extra))
  | None -> t.dropped <- t.dropped + 1

let send_ipi t ~src ~dst ~vector =
  t.sent <- t.sent + 1;
  match t.interceptor with
  | Some hook -> (
      match hook ~src ~dst ~vector with
      | Deliver -> deliver_raw t ~dst ~vector
      | Consumed -> ())
  | None -> deliver_raw t ~dst ~vector

let ipis_sent t = t.sent
let ipis_dropped t = t.dropped
let ipis_fault_dropped t = t.fault_dropped
let ipis_fault_delayed t = t.fault_delayed
