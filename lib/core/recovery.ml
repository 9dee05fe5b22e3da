open Taichi_engine
open Taichi_hw

type t = {
  config : Config.t;
  machine : Machine.t;
  sim : Sim.t;
  latency : Histogram.t;
  window : Time_ns.t Queue.t;
  mutable total : int;
  mutable degraded : bool;
  mutable forced : bool;
  mutable last_event : Time_ns.t;
  mutable engaged : int;
  mutable rearmed : int;
  mutable engage_cbs : (unit -> unit) list;
  mutable rearm_cbs : (unit -> unit) list;
  h_rearmed : Counters.handle;
  h_engaged : Counters.handle;
  h_forced : Counters.handle;
  h_released : Counters.handle;
  (* [note] events carry an open (cls, action) vocabulary; the handles
     are interned per pair on first use, off the per-event path. *)
  note_cells : (string * string, Counters.handle) Hashtbl.t;
}

let create config machine =
  let h = Counters.handle (Machine.counters machine) in
  {
    config;
    machine;
    sim = Machine.sim machine;
    latency = Histogram.create ();
    window = Queue.create ();
    total = 0;
    degraded = false;
    forced = false;
    last_event = Time_ns.zero;
    engaged = 0;
    rearmed = 0;
    engage_cbs = [];
    rearm_cbs = [];
    h_rearmed = h "recovery.degraded.rearmed";
    h_engaged = h "recovery.degraded.engaged";
    h_forced = h "recovery.degraded.forced";
    h_released = h "recovery.degraded.released";
    note_cells = Hashtbl.create 8;
  }

let degraded t = t.degraded
let forced t = t.forced
let on_engage t f = t.engage_cbs <- t.engage_cbs @ [ f ]
let on_rearm t f = t.rearm_cbs <- t.rearm_cbs @ [ f ]
let engaged_count t = t.engaged
let rearmed_count t = t.rearmed
let events t = t.total
let latency_hist t = t.latency

let rearm t =
  t.degraded <- false;
  Queue.clear t.window;
  t.rearmed <- t.rearmed + 1;
  Counters.incr_h (Machine.counters t.machine) t.h_rearmed;
  Trace.emit (Machine.trace t.machine) ~time:(Sim.now t.sim)
    ~category:Trace.Cat.degraded "rearm";
  List.iter (fun f -> f ()) t.rearm_cbs

(* While degraded, poll for the quiet period: every recovery event pushes
   [last_event] forward, so the check reschedules itself until a full
   [degraded_quiet] passes with no recovery activity at all. The check
   fires one tick *after* the deadline and requires strictly more than the
   quiet period: the simulator runs same-timestamp events FIFO, so a fault
   burst landing exactly at the deadline would otherwise be processed
   after a rearm it should have suppressed — a spurious rearm/re-engage
   flap at the boundary. *)
let rec schedule_quiet_check t =
  let due = t.last_event + t.config.Config.degraded_quiet + 1 in
  ignore
    (Sim.at t.sim (Int.max due (Sim.now t.sim)) (fun () ->
         (* A forced (load-driven) hold pins degraded mode: the quiet
            check stops polling and the eventual [force_release] re-arms
            directly. *)
         if t.degraded && not t.forced then
           if Sim.now t.sim - t.last_event > t.config.Config.degraded_quiet
           then rearm t
           else schedule_quiet_check t))

let engage t =
  t.degraded <- true;
  t.engaged <- t.engaged + 1;
  Counters.incr_h (Machine.counters t.machine) t.h_engaged;
  Trace.emitf (Machine.trace t.machine) ~time:(Sim.now t.sim)
    ~category:Trace.Cat.degraded "engage events_in_window=%d"
    (Queue.length t.window);
  List.iter (fun f -> f ()) t.engage_cbs;
  schedule_quiet_check t

(* Load-driven degradation (the overload governor's Static_partition
   rung) converges on the same mechanism as fault-driven degradation:
   the same engage callbacks evict placements, but the hold is pinned
   until the governor explicitly releases it — the fault-side quiet
   period must not re-arm underneath a still-overloaded system. *)
let force_engage t =
  if not t.forced then begin
    t.forced <- true;
    Counters.incr_h (Machine.counters t.machine) t.h_forced;
    if not t.degraded then begin
      t.degraded <- true;
      t.engaged <- t.engaged + 1;
      Counters.incr_h (Machine.counters t.machine) t.h_engaged;
      Trace.emit (Machine.trace t.machine) ~time:(Sim.now t.sim)
        ~category:Trace.Cat.degraded "engage forced=overload";
      List.iter (fun f -> f ()) t.engage_cbs
    end
    else
      Trace.emit (Machine.trace t.machine) ~time:(Sim.now t.sim)
        ~category:Trace.Cat.degraded "hold forced=overload"
  end

let force_release t =
  if t.forced then begin
    t.forced <- false;
    Counters.incr_h (Machine.counters t.machine) t.h_released;
    if t.degraded then rearm t
  end

let note t ~cls ~action ~latency =
  let h =
    match Hashtbl.find_opt t.note_cells (cls, action) with
    | Some h -> h
    | None ->
        let h =
          Counters.handle (Machine.counters t.machine)
            (Printf.sprintf "recovery.%s.%s" cls action)
        in
        Hashtbl.replace t.note_cells (cls, action) h;
        h
  in
  Counters.incr_h (Machine.counters t.machine) h;
  Histogram.add t.latency latency;
  t.total <- t.total + 1;
  let now = Sim.now t.sim in
  Trace.emitf (Machine.trace t.machine) ~time:now
    ~category:Trace.Cat.recovery "%s.%s latency=%d" cls action latency;
  t.last_event <- now;
  if t.config.Config.resilience then begin
    Queue.push now t.window;
    let horizon = now - t.config.Config.degraded_window in
    while
      (not (Queue.is_empty t.window)) && Queue.peek t.window < horizon
    do
      ignore (Queue.pop t.window)
    done;
    if
      (not t.degraded)
      && Queue.length t.window >= t.config.Config.degraded_threshold
    then engage t
  end
