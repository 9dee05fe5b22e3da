open Taichi_engine
open Taichi_hw
open Taichi_os
open Taichi_metrics

type level = Normal | Throttle | Defer | Shed | Static_partition
type cls = Tenant.cls = Critical | Standard | Deferrable

let level_label = function
  | Normal -> "normal"
  | Throttle -> "throttle"
  | Defer -> "defer"
  | Shed -> "shed"
  | Static_partition -> "static_partition"

let rank = function
  | Normal -> 0
  | Throttle -> 1
  | Defer -> 2
  | Shed -> 3
  | Static_partition -> 4

let cls_label = Tenant.cls_name

(* One brownout ladder per tenant. Under the implicit single tenant there
   is exactly one lane, untagged: its counters and transition events keep
   the seed names and formats, so governed single-tenant runs stay
   byte-identical. Tagged lanes (explicit multi-tenant tables) mirror
   every counter into [tenant.<id>.*] alongside the global name and
   prefix their transition events with [tenant=<id>], giving each tenant
   an independently verifiable ladder chain.

   Lanes are created on admit and frozen — never deleted — on retire: a
   frozen lane keeps its counters and final level forever (so per-tenant
   sums still equal the globals) but is excluded from sampling, token
   refill, admission and every live-state fold. *)
type lane = {
  tid : int;
  tagged : bool;
  mutable frozen : bool;
  sketch : Quantile.t;
  mutable dp_cores : int list;  (* reverse registration order *)
  mutable kcpus : int list;
  prev_dwell : Time_ns.t array;  (* by core: last dp_running dwell *)
  deferred : (cls * (unit -> unit)) Queue.t;
  mutable level : level;
  mutable entered : Time_ns.t;  (* when the current rung was entered *)
  mutable calm_since : Time_ns.t option;  (* all signals under low marks since *)
  mutable seq : int;  (* transition sequence number, 1-based *)
  (* Token buckets, refilled every sampling period at a per-rung rate. *)
  mutable place_tokens : int;
  mutable std_tokens : int;
  mutable def_tokens : int;
  mutable s_transitions : int;
  mutable s_escalations : int;
  mutable s_relaxes : int;
  shed_counts : (cls, int) Hashtbl.t;
}

(* A mirrored counter cell: the global handle plus the per-tenant lane
   for the same name, both interned once at [create]. Incrementing one
   is two array stores — no string hashing, no [Tenant.counter]
   sprintf — which matters because admission verdicts and ladder
   samples are per-event. *)
type cell = { ch : Counters.handle; cl : Counters.lane }

(* One cell per counter the governor touches; the per-class and
   per-level families are arrays indexed by [cls_rank] / [rank], so the
   seed's [Printf.sprintf "overload.admitted.%s"] per admission is a
   plain array index now. *)
type cells = {
  c_place_denied : cell;
  c_admitted : cell array; (* by cls rank *)
  c_deferred : cell array;
  c_shed : cell array;
  c_transitions : cell;
  c_enter : cell array; (* by level rank *)
  c_escalations : cell;
  c_relaxes : cell;
  c_samples : cell;
}

type t = {
  config : Config.t;
  machine : Machine.t;
  kernel : Kernel.t;
  recovery : Recovery.t;
  sim : Sim.t;
  cs : Core_state.t;
  ctr : Counters.t;
  cells : cells;
  mutable lanes : lane array;
  mutable started : bool;
  mutable engaged_lanes : int;
      (* lanes currently at Static_partition: the degraded hold releases
         only when the last of them relaxes *)
  mutable transition_cbs : (level -> level -> unit) list;
}

let make_cells ctr =
  let cell name = { ch = Counters.handle ctr name; cl = Counters.lane ctr name } in
  let by_cls prefix =
    Array.of_list
      (List.map (fun c -> cell (prefix ^ cls_label c)) Tenant.all_classes)
  in
  {
    c_place_denied = cell "overload.place_denied";
    c_admitted = by_cls "overload.admitted.";
    c_deferred = by_cls "overload.deferred.";
    c_shed = by_cls "overload.shed.";
    c_transitions = cell "overload.transitions";
    c_enter =
      Array.of_list
        (List.map
           (fun lv -> cell ("overload.enter." ^ level_label lv))
           [ Normal; Throttle; Defer; Shed; Static_partition ]);
    c_escalations = cell "overload.escalations";
    c_relaxes = cell "overload.relaxes";
    c_samples = cell "overload.samples";
  }

let lane_count t l c =
  Counters.incr_h t.ctr c.ch;
  if l.tagged then Counters.lane_incr c.cl l.tid

let make_lane config ~cores ~tid ~tagged =
  (* The sketch window spans a handful of sampling periods, so the p99
     signal reflects the recent regime, not the whole run. *)
  let slice = Int.max 1 config.Config.overload_period in
  {
    tid;
    tagged;
    frozen = false;
    sketch = Quantile.create ~slices:8 ~slice ();
    dp_cores = [];
    kcpus = [];
    prev_dwell = Array.make cores Time_ns.zero;
    deferred = Queue.create ();
    level = Normal;
    entered = Time_ns.zero;
    calm_since = None;
    seq = 0;
    place_tokens = config.Config.overload_token_burst;
    std_tokens = config.Config.overload_token_burst;
    def_tokens = config.Config.overload_token_burst;
    s_transitions = 0;
    s_escalations = 0;
    s_relaxes = 0;
    shed_counts = Hashtbl.create 4;
  }

let create ?tenants config machine kernel recovery =
  (* The platform passes its one shared table so lanes added by churn
     admissions line up with the registry; static callers fall back to a
     fresh (immutable-in-practice) table. *)
  let table =
    match tenants with Some t -> t | None -> Config.tenant_table config
  in
  let tagged = Tenant.is_multi table in
  let ctr = Machine.counters machine in
  {
    config;
    machine;
    kernel;
    recovery;
    sim = Machine.sim machine;
    cs = Machine.core_state machine;
    ctr;
    cells = make_cells ctr;
    lanes =
      Array.init (Tenant.count table) (fun tid ->
          make_lane config ~cores:(Machine.physical_cores machine) ~tid
            ~tagged);
    started = false;
    engaged_lanes = 0;
    transition_cbs = [];
  }

let lane t tenant =
  if tenant < 0 || tenant >= Array.length t.lanes then t.lanes.(0)
  else t.lanes.(tenant)

let watch_dp t ?(tenant = 0) ~core () =
  let l = lane t tenant in
  l.dp_cores <- core :: l.dp_cores

let watch_kcpu t ?(tenant = 0) kcpu =
  let l = lane t tenant in
  l.kcpus <- kcpu :: l.kcpus

let observe_latency t ?(tenant = 0) lat =
  let l = lane t tenant in
  if not l.frozen then Quantile.observe l.sketch ~now:(Sim.now t.sim) lat

let fold_lanes t f init = Array.fold_left f init t.lanes

(* Live-state folds skip frozen lanes: a retired tenant's final rung is
   history, not pressure. Cumulative stats (transitions, sheds) keep
   counting frozen lanes — those totals must still match the globals. *)
let level t =
  fold_lanes t
    (fun acc l ->
      if (not l.frozen) && rank l.level > rank acc then l.level else acc)
    Normal

let level_of t ~tenant = (lane t tenant).level

let backpressure t =
  fold_lanes t
    (fun acc l -> acc || ((not l.frozen) && rank l.level >= rank Defer))
    false
let on_transition t f = t.transition_cbs <- t.transition_cbs @ [ f ]
let transitions t = fold_lanes t (fun a l -> a + l.s_transitions) 0
let escalations t = fold_lanes t (fun a l -> a + l.s_escalations) 0
let relaxes t = fold_lanes t (fun a l -> a + l.s_relaxes) 0

let lane_shed l cls =
  Option.value ~default:0 (Hashtbl.find_opt l.shed_counts cls)

let shed t cls = fold_lanes t (fun a l -> a + lane_shed l cls) 0
let deferred_pending t = fold_lanes t (fun a l -> a + Queue.length l.deferred) 0
let deferred_pending_of t ~tenant = Queue.length (lane t tenant).deferred

(* --- token buckets -------------------------------------------------------- *)

(* Each rung below Throttle halves the refill rate: admission pressure
   degrades monotonically with ladder depth. *)
let refill_rate t l =
  let base = t.config.Config.overload_tokens_per_period in
  match l.level with
  | Normal | Throttle -> base
  | Defer -> Int.max 1 (base / 2)
  | Shed | Static_partition -> Int.max 1 (base / 4)

let refill t l =
  let burst = t.config.Config.overload_token_burst in
  let rate = refill_rate t l in
  l.place_tokens <- Int.min burst (l.place_tokens + rate);
  l.std_tokens <- Int.min burst (l.std_tokens + rate);
  l.def_tokens <- Int.min burst (l.def_tokens + rate)

let take_cls_token l cls =
  match cls with
  | Critical -> true
  | Standard ->
      if l.std_tokens > 0 then begin
        l.std_tokens <- l.std_tokens - 1;
        true
      end
      else false
  | Deferrable ->
      if l.def_tokens > 0 then begin
        l.def_tokens <- l.def_tokens - 1;
        true
      end
      else false

let place_allowed t tenant =
  let l = lane t tenant in
  if l.frozen then false
  else
  match l.level with
  | Normal -> true
  | Static_partition -> false (* degraded: static partitioning *)
  | Throttle | Defer | Shed ->
      if l.place_tokens > 0 then begin
        l.place_tokens <- l.place_tokens - 1;
        true
      end
      else begin
        lane_count t l t.cells.c_place_denied;
        false
      end

(* --- admission ------------------------------------------------------------ *)

let run_now t l cls run =
  lane_count t l t.cells.c_admitted.(Tenant.cls_rank cls);
  run ();
  `Admitted

let park t l cls run =
  lane_count t l t.cells.c_deferred.(Tenant.cls_rank cls);
  Queue.push (cls, run) l.deferred;
  `Deferred

let drop t l cls =
  Hashtbl.replace l.shed_counts cls (lane_shed l cls + 1);
  lane_count t l t.cells.c_shed.(Tenant.cls_rank cls);
  `Shed

let lane_admit t l ~cls run =
  match (l.level, cls) with
  | Normal, _ | _, Critical -> run_now t l cls run
  | Throttle, (Standard | Deferrable) ->
      if take_cls_token l cls then run_now t l cls run else park t l cls run
  | Defer, Standard ->
      if take_cls_token l cls then run_now t l cls run else park t l cls run
  | Defer, Deferrable -> park t l cls run
  | (Shed | Static_partition), Standard -> park t l cls run
  | (Shed | Static_partition), Deferrable -> drop t l cls

let admit t ?(tenant = 0) ~cls run =
  let l = lane t tenant in
  (* A frozen lane admits nothing and counts nothing: the platform's
     lifecycle gate refuses retired tenants upstream, so reaching here is
     a late straggler that must not thaw the lane's counters. *)
  if l.frozen then `Shed else lane_admit t l ~cls run

(* Re-route every parked admission through the (now shallower) ladder;
   whatever is still inadmissible parks again. *)
let drain_deferred t l =
  let pending = Queue.create () in
  Queue.transfer l.deferred pending;
  Queue.iter (fun (cls, run) -> ignore (lane_admit t l ~cls run)) pending

(* --- ladder --------------------------------------------------------------- *)

let goto t l to_ =
  let from = l.level in
  let now = Sim.now t.sim in
  let held = now - l.entered in
  l.seq <- l.seq + 1;
  l.level <- to_;
  l.entered <- now;
  l.calm_since <- None;
  l.s_transitions <- l.s_transitions + 1;
  lane_count t l t.cells.c_transitions;
  lane_count t l t.cells.c_enter.(rank to_);
  if rank to_ > rank from then begin
    l.s_escalations <- l.s_escalations + 1;
    lane_count t l t.cells.c_escalations
  end
  else begin
    l.s_relaxes <- l.s_relaxes + 1;
    lane_count t l t.cells.c_relaxes
  end;
  (if l.tagged then
     Trace.emitf (Machine.trace t.machine) ~time:now
       ~category:Trace.Cat.overload "tenant=%d seq=%d from=%s to=%s held=%d min=%d"
       l.tid l.seq (level_label from) (level_label to_) held
       t.config.Config.overload_min_dwell
   else
     Trace.emitf (Machine.trace t.machine) ~time:now
       ~category:Trace.Cat.overload "seq=%d from=%s to=%s held=%d min=%d" l.seq
       (level_label from) (level_label to_) held
       t.config.Config.overload_min_dwell);
  (* The final rung converges on PR 3's degraded fallback: load-driven
     static partitioning pins the same mechanism fault bursts engage. The
     hold is engaged by the first lane to reach the bottom rung and
     released only when the last of them leaves it. *)
  if to_ = Static_partition then begin
    t.engaged_lanes <- t.engaged_lanes + 1;
    if t.engaged_lanes = 1 then Recovery.force_engage t.recovery
  end;
  if from = Static_partition then begin
    t.engaged_lanes <- t.engaged_lanes - 1;
    if t.engaged_lanes = 0 then Recovery.force_release t.recovery
  end;
  if rank to_ < rank from then drain_deferred t l;
  List.iter (fun f -> f from to_) t.transition_cbs

let next_up = function
  | Normal -> Throttle
  | Throttle -> Defer
  | Defer -> Shed
  | Shed | Static_partition -> Static_partition

let next_down = function
  | Static_partition -> Shed
  | Shed -> Defer
  | Defer -> Throttle
  | Throttle | Normal -> Normal

(* --- signals -------------------------------------------------------------- *)

let dp_running_dwell t ~core =
  Core_state.dwell_in t.cs ~core Core_state.Dp_running

(* Fraction of the last sampling period the lane's DP cores spent
   actually processing packets (dwell delta of the authoritative state
   machine's [Dp_running] label). *)
let sample_busy t l =
  match l.dp_cores with
  | [] -> 0.0
  | cores ->
      let period = t.config.Config.overload_period in
      let total =
        List.fold_left
          (fun acc core ->
            let d = dp_running_dwell t ~core in
            let prev = l.prev_dwell.(core) in
            l.prev_dwell.(core) <- d;
            acc + Int.max 0 (d - prev))
          0 cores
      in
      float_of_int total /. float_of_int (period * List.length cores)

let sample_runq t l =
  List.fold_left
    (fun acc k -> acc + Kernel.runqueue_length (Kernel.cpu t.kernel k))
    0 l.kcpus

let sample_p99 t l = Quantile.quantile l.sketch ~now:(Sim.now t.sim) 99.0

let sample_and_step t l =
  let c = t.config in
  let now = Sim.now t.sim in
  let busy = sample_busy t l in
  let runq = sample_runq t l in
  let p99 = sample_p99 t l in
  lane_count t l t.cells.c_samples;
  let bound = c.Config.overload_p99_bound in
  let p99_over = match p99 with Some p -> p >= bound | None -> false in
  let p99_under = match p99 with Some p -> p <= bound / 2 | None -> true in
  let over_votes =
    (if busy >= c.Config.overload_busy_high then 1 else 0)
    + (if runq >= c.Config.overload_runq_high then 1 else 0)
    + if p99_over then 1 else 0
  in
  let under =
    busy <= c.Config.overload_busy_low
    && runq <= c.Config.overload_runq_low
    && p99_under
  in
  let held = now - l.entered in
  if over_votes >= 2 then begin
    l.calm_since <- None;
    if held >= c.Config.overload_min_dwell && l.level <> Static_partition then
      goto t l (next_up l.level)
  end
  else if under then begin
    (match l.calm_since with
    | None -> l.calm_since <- Some now
    | Some _ -> ());
    match l.calm_since with
    | Some calm
      when l.level <> Normal
           && now - calm >= c.Config.overload_quiet
           && held >= c.Config.overload_min_dwell ->
        goto t l (next_down l.level)
    | _ -> ()
  end
  else l.calm_since <- None

let rec tick t =
  ignore
    (Sim.after t.sim t.config.Config.overload_period (fun () ->
         Array.iter
           (fun l ->
             if not l.frozen then begin
               refill t l;
               sample_and_step t l
             end)
           t.lanes;
         tick t))

(* --- churn: lane lifecycle ------------------------------------------------ *)

(* A dynamically admitted tenant gets a fresh tagged lane. Ids must stay
   aligned with the tenant registry, so the new lane's id is required to
   be exactly the next slot. *)
let admit_lane t ~tenant =
  if tenant <> Array.length t.lanes then
    invalid_arg
      (Printf.sprintf "Overload.admit_lane: expected tenant %d, got %d"
         (Array.length t.lanes) tenant);
  let l =
    make_lane t.config ~cores:(Machine.physical_cores t.machine) ~tid:tenant
      ~tagged:true
  in
  if t.started then l.entered <- Sim.now t.sim;
  t.lanes <- Array.append t.lanes [| l |]

(* Drain-start settlement: parked admissions of a departing tenant are
   CP work that must not run during or after the drain, so they are shed
   now, with the usual receipts, while the lane is still live. *)
let quiesce_lane t ~tenant =
  let l = lane t tenant in
  let pending = Queue.create () in
  Queue.transfer l.deferred pending;
  Queue.iter (fun (cls, _run) -> ignore (drop t l cls)) pending

(* Freeze the lane at whatever rung it last held. Walking it back down
   would fabricate transitions faster than the ladder's minimum dwell
   allows, so the level is left as history; if that rung was the bottom
   one, the degraded hold it contributed is released here so a departed
   aggressor cannot pin the machine in static partitioning forever. *)
let retire_lane t ~tenant =
  let l = lane t tenant in
  if not l.frozen then begin
    quiesce_lane t ~tenant;
    if l.level = Static_partition then begin
      t.engaged_lanes <- t.engaged_lanes - 1;
      if t.engaged_lanes = 0 then Recovery.force_release t.recovery
    end;
    l.frozen <- true
  end

(* Move a floating DP core's busy signal between lanes, re-baselining the
   dwell delta so the receiving lane's first sample covers one period of
   its own traffic, not the core's whole history. *)
let move_dp_watch t ~core ~from_tenant ~to_tenant =
  let src = lane t from_tenant and dst = lane t to_tenant in
  src.dp_cores <- List.filter (fun c -> c <> core) src.dp_cores;
  src.prev_dwell.(core) <- Time_ns.zero;
  dst.dp_cores <- core :: dst.dp_cores;
  dst.prev_dwell.(core) <- dp_running_dwell t ~core

let start t =
  if not t.started then begin
    t.started <- true;
    let now = Sim.now t.sim in
    Array.iter
      (fun l ->
        l.entered <- now;
        (* Baseline the dwell deltas so the first sample covers one
           period, not the whole history before [start]. *)
        List.iter
          (fun core ->
            l.prev_dwell.(core) <- dp_running_dwell t ~core)
          l.dp_cores)
      t.lanes;
    tick t
  end
