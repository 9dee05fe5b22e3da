open Taichi_engine
open Taichi_hw
open Taichi_accel
open Taichi_metrics

type config = {
  core : int;
  tenant : int;
  burst : int;
  poll_iter : Time_ns.t;
  per_packet : Packet.t -> Time_ns.t;
  spike_threshold : Time_ns.t;
}

let default_config ?(tenant = 0) ~core ~per_packet () =
  {
    core;
    tenant;
    burst = 32;
    poll_iter = Time_ns.ns 100;
    per_packet;
    spike_threshold = Time_ns.us 100;
  }

type state = Processing | Counting | Idle_parked | Yielded

type t = {
  sim : Sim.t;
  machine : Machine.t;
  cs : Core_state.t;
  pipeline : Pipeline.t;
  config : config;
  ring : Ring.t;
  burst_buf : Packet.t array;
      (* scratch for the poll-loop burst: the service is strictly
         sequential (one outstanding processing event), so one buffer
         per service suffices and the pop-process-complete cycle
         allocates nothing *)
  hooks : hooks;
  latency : Recorder.t;
  mutable started : bool;
  mutable speed_tax : float;
  mutable idle_event : Sim.handle option;
  mutable poll_since : Time_ns.t;  (** start of the current empty-poll span *)
  mutable park_since : Time_ns.t;  (** start of the current parked span *)
  mutable resuming : bool;
  mutable bursts : int;
  mutable spikes : int;
  mutable yields : int;
  mutable resumes : int;
  mutable latency_sink : (Time_ns.t -> unit) option;
  (* dp.* counter cells, interned at [create]: the global handle and the
     per-tenant mirror lane for the same name. [count] is two array
     stores — the per-event [Printf.sprintf "tenant.%d.%s"] is gone. *)
  c_parks : cell;
  c_wakes : cell;
  c_yields : cell;
  c_resumes : cell;
  mutable tag_tenant : bool;
      (** mirror dp.* counters into the per-tenant namespace; only set
          under an explicit multi-tenant table *)
  mutable owner : int;
      (** current owning tenant. Starts as [config.tenant] (the resting
          owner) and changes only through {!set_owner} when the churn
          lifecycle floats this service to a dynamic tenant and back. *)
}

and cell = { ch : Counters.handle; cl : Counters.lane }

and hooks = {
  mutable idle_threshold : unit -> int;
  mutable idle_detected : t -> unit;
  mutable work_arrived_while_yielded : t -> unit;
  mutable on_packets_done : Packet.t array -> int -> unit;
      (** called with the burst scratch array and the burst length; the
          packets are freed back to the pipeline arena as soon as the
          hook returns, so handlers must copy anything they keep *)
}

let default_hooks () =
  {
    idle_threshold = (fun () -> 200);
    idle_detected = (fun _ -> ());
    work_arrived_while_yielded = (fun _ -> ());
    on_packets_done = (fun _ _ -> ());
  }

let charge t cls d =
  if d > 0 then
    Accounting.charge (Machine.accounting t.machine) ~core:t.config.core cls d

let count t c =
  Counters.incr_h (Machine.counters t.machine) c.ch;
  if t.tag_tenant then Counters.lane_incr c.cl t.owner

let tracing t = Trace.enabled (Machine.trace t.machine)

let emit t ~category message =
  Trace.emit (Machine.trace t.machine) ~time:(Sim.now t.sim) ~core:t.config.core
    ~category message

(* The service's externally visible state is derived from the authoritative
   per-core machine — it holds no occupancy word of its own. Anything other
   than the three data-plane states means the core is lent out (or not yet
   started). *)
let state t =
  match Core_state.get t.cs ~core:t.config.core with
  | Core_state.Dp_running -> Processing
  | Core_state.Dp_counting -> Counting
  | Core_state.Dp_parked -> Idle_parked
  | Core_state.Offline | Core_state.Vcpu_running _ | Core_state.Switching _
  | Core_state.Cp_dedicated ->
      Yielded

let transition t ~cause st = Core_state.transition t.cs ~core:t.config.core ~cause st

(* Close out the running empty-poll span. Both empty polling and parking
   are charged to the [Dp_poll] accounting class: the core is burning
   cycles without doing packet work either way. *)
let settle_poll_time t =
  let d = Sim.now t.sim - t.poll_since in
  if d > 0 then charge t Accounting.Dp_poll d;
  t.poll_since <- Sim.now t.sim

let settle_park_time t =
  let d = Sim.now t.sim - t.park_since in
  if d > 0 then charge t Accounting.Dp_poll d;
  t.park_since <- Sim.now t.sim

let rec enter_counting t ~cause =
  transition t ~cause Core_state.Dp_counting;
  t.poll_since <- Sim.now t.sim;
  let n = t.hooks.idle_threshold () in
  let span = n * t.config.poll_iter in
  t.idle_event <-
    Some
      (Sim.after t.sim span (fun () ->
           t.idle_event <- None;
           settle_poll_time t;
           transition t ~cause:Core_state.Park Core_state.Dp_parked;
           t.park_since <- Sim.now t.sim;
           count t t.c_parks;
           if tracing t then
             emit t ~category:Trace.Cat.dp_park (Printf.sprintf "n=%d" n);
           t.hooks.idle_detected t))

and start_processing t ~cause ~discovery =
  transition t ~cause Core_state.Dp_running;
  if discovery > 0 then charge t Accounting.Dp_poll discovery;
  ignore (Sim.after t.sim discovery (fun () -> process_loop t))

and process_loop t =
  let n = Ring.pop_burst_into t.ring t.burst_buf ~max:t.config.burst in
  if n = 0 then enter_counting t ~cause:Core_state.Drain
  else begin
    t.bursts <- t.bursts + 1;
    let work = ref 0 in
    for i = 0 to n - 1 do
      work := !work + t.config.per_packet t.burst_buf.(i)
    done;
    let work = !work in
    let work =
      if t.speed_tax = 0.0 then work
      else work + int_of_float (float_of_int work *. t.speed_tax)
    in
    let wall =
      Cache_model.charge_work (Machine.cache t.machine) ~core:t.config.core work
    in
    ignore
      (Sim.after t.sim wall (fun () ->
           charge t Accounting.Dp_work wall;
           let now = Sim.now t.sim in
           for i = 0 to n - 1 do
             let p = t.burst_buf.(i) in
             p.Packet.t_done <- now;
             let lat = now - p.Packet.t_submit in
             Recorder.observe t.latency lat;
             (match t.latency_sink with Some f -> f lat | None -> ());
             if lat > t.config.spike_threshold then t.spikes <- t.spikes + 1
           done;
           t.hooks.on_packets_done t.burst_buf n;
           let arena = Pipeline.arena t.pipeline in
           for i = 0 to n - 1 do
             Packet.free arena t.burst_buf.(i)
           done;
           process_loop t))
  end

let on_ring_activity t =
  if t.started then
    match state t with
    | Processing -> ()
    | Counting ->
        (match t.idle_event with Some h -> Sim.cancel t.sim h | None -> ());
        t.idle_event <- None;
        settle_poll_time t;
        start_processing t ~cause:Core_state.Wake ~discovery:t.config.poll_iter
    | Idle_parked ->
        settle_park_time t;
        count t t.c_wakes;
        emit t ~category:Trace.Cat.dp_wake "work arrived";
        start_processing t ~cause:Core_state.Wake ~discovery:t.config.poll_iter
    | Yielded -> t.hooks.work_arrived_while_yielded t

let create machine pipeline config =
  let sim = Machine.sim machine in
  let ring =
    Ring.create
      ~name:(Printf.sprintf "dp-core%d" config.core)
      ~tenant:config.tenant ()
  in
  Pipeline.attach_ring pipeline ~core:config.core ring;
  let ctr = Machine.counters machine in
  let cell name = { ch = Counters.handle ctr name; cl = Counters.lane ctr name } in
  let t =
    {
      sim;
      machine;
      cs = Machine.core_state machine;
      pipeline;
      config;
      ring;
      burst_buf = Array.make (Int.max 1 config.burst) Packet.dummy;
      hooks = default_hooks ();
      latency = Recorder.create (Printf.sprintf "dp%d.latency" config.core);
      started = false;
      speed_tax = 0.0;
      idle_event = None;
      poll_since = 0;
      park_since = 0;
      resuming = false;
      bursts = 0;
      spikes = 0;
      yields = 0;
      resumes = 0;
      c_parks = cell "dp.parks";
      c_wakes = cell "dp.wakes";
      c_yields = cell "dp.yields";
      c_resumes = cell "dp.resumes";
      latency_sink = None;
      tag_tenant = false;
      owner = config.tenant;
    }
  in
  t

let start t =
  if not t.started then begin
    t.started <- true;
    if Ring.is_empty t.ring then enter_counting t ~cause:Core_state.Hotplug
    else
      start_processing t ~cause:Core_state.Hotplug
        ~discovery:t.config.poll_iter
  end

let hooks t = t.hooks
let core t = t.config.core
let config t = t.config
let ring t = t.ring
let set_speed_tax t tax = t.speed_tax <- tax
let set_latency_sink t sink = t.latency_sink <- sink
let tenant t = t.owner
let set_tag_tenant t on = t.tag_tenant <- on

(* Reassigning ownership re-stamps the ring, so packets delivered from
   now on carry the new tenant; descriptors already resident keep their
   old stamp (the drain audit checks none are left behind on retire). *)
let set_owner t tenant =
  t.owner <- tenant;
  Ring.set_tenant t.ring tenant

let resting_owner t = t.config.tenant

let pending_work t =
  (not (Ring.is_empty t.ring))
  || Pipeline.in_flight t.pipeline ~core:t.config.core > 0

(* Force-drain escalation: throw the resident descriptors away (no
   latency observation — they were never served). Returns how many were
   discarded so the lifecycle can issue receipts; packets the service
   already popped for processing complete normally. *)
let discard_backlog t =
  let n = Ring.length t.ring in
  if n > 0 then begin
    let arena = Pipeline.arena t.pipeline in
    List.iter (Packet.free arena) (Ring.pop_burst t.ring ~max:n)
  end;
  n

let try_yield t =
  match state t with
  | (Counting | Idle_parked) as st when not (pending_work t) ->
      (match t.idle_event with Some h -> Sim.cancel t.sim h | None -> ());
      t.idle_event <- None;
      (match st with
      | Counting -> settle_poll_time t
      | _ -> settle_park_time t);
      (* The core leaves data-plane occupancy here; whoever takes it over
         (the vCPU scheduler, or the kernel under co-schedule policies)
         performs the next transition. *)
      transition t ~cause:Core_state.Yield (Core_state.Switching Core_state.From_dp);
      t.yields <- t.yields + 1;
      count t t.c_yields;
      emit t ~category:Trace.Cat.dp_yield "core given up";
      true
  | Counting | Idle_parked | Processing | Yielded -> false

let resume t ~switch_cost =
  if t.started && state t = Yielded && not t.resuming then begin
    t.resuming <- true;
    t.resumes <- t.resumes + 1;
    count t t.c_resumes;
    if tracing t then
      emit t ~category:Trace.Cat.dp_resume
        (Printf.sprintf "switch_cost=%d" switch_cost);
    (* The evictor (vCPU scheduler) may already have moved the core into
       [Switching To_dp] as part of the eviction; only transition here when
       the give-back originates elsewhere (kernel reclaim under
       co-schedule, or a revoked yield nobody claimed). *)
    (match Core_state.get t.cs ~core:t.config.core with
    | Core_state.Switching Core_state.To_dp -> ()
    | _ ->
        transition t ~cause:Core_state.Resume
          (Core_state.Switching Core_state.To_dp));
    ignore
      (Sim.after t.sim switch_cost (fun () ->
           charge t Accounting.Switch switch_cost;
           t.resuming <- false;
           if Ring.is_empty t.ring then enter_counting t ~cause:Core_state.Resume
           else
             start_processing t ~cause:Core_state.Resume
               ~discovery:t.config.poll_iter))
  end

let latency t = t.latency
let packets_processed t = Recorder.count t.latency
let bursts t = t.bursts
let yields t = t.yields
let resumes t = t.resumes
let spikes t = t.spikes

let busy_fraction t ~elapsed =
  if elapsed <= 0 then 0.0
  else
    let work =
      Accounting.busy_class (Machine.accounting t.machine) ~core:t.config.core
        Accounting.Dp_work
    in
    float_of_int work /. float_of_int elapsed
