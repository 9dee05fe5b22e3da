open Taichi_engine
open Taichi_hw
open Taichi_os
open Taichi_accel
open Taichi_workloads
open Taichi_controlplane

let scaled s d = max (Time_ns.ms 10) (int_of_float (float_of_int d *. s))

(* --- trace export -------------------------------------------------------- *)

(* The experiment drivers build their systems internally, so [with_system]
   is the one chokepoint where tracing is switched on and the finished run
   harvested. Everything flows through the run context: the CLI and the
   bench harness build one, the sweep derives a private one per cell, and
   the harvest lands in the context's sink — never in shared refs.

   Invariant (re-audited for the multi-tenant sweeps): this module holds
   NO module-level mutable state — every ref, table and RNG below is
   created inside the function that uses it and scoped to one System.t.
   That is what lets [Sweep.run --jobs N] run cells on separate domains
   with byte-identical output; keep it that way when adding helpers. *)

let harvest_run ~ctx ~seed sys =
  let machine = System.machine sys in
  let table = System.tenants sys in
  let tenants =
    if Taichi_core.Tenant.is_multi table then Taichi_core.Tenant.ids table
    else []
  in
  let run =
    Taichi_metrics.Export.make_run ~tenants
      ~experiment:(Run_ctx.experiment ctx)
      ~policy:(Policy.name (System.policy sys))
      ~seed
      ~duration:(Sim.now (System.sim sys))
      ~cores:(Machine.physical_cores machine)
      ~counters:(Counters.dump (Machine.counters machine))
      (Machine.trace machine)
  in
  Run_ctx.harvest ctx run

let fingerprint systems extras =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (label, sys) ->
      Buffer.add_string buf label;
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s=%d;" k v))
        (Counters.dump (Machine.counters (System.machine sys))))
    systems;
  List.iter (fun s -> Buffer.add_string buf (s ^ ";")) extras;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- post-run audit ------------------------------------------------------ *)

(* In [Abort] mode an audit violation kills the run (the behaviour tests
   and the bench harness rely on); the CLI runs in [Collect] mode so a
   batch of experiments completes, every failure is reported and the
   process exits with a distinct status code. *)

let check_audit ~ctx ~seed sys =
  let illegal =
    Counters.get (Machine.counters (System.machine sys)) "core_state.illegal"
  in
  let violations =
    System.audit sys
    @
    if illegal > 0 then
      [ Printf.sprintf "core_state.illegal counter is %d" illegal ]
    else []
  in
  match violations with
  | [] -> ()
  | violations -> (
      match Run_ctx.audit_mode ctx with
      | Run_ctx.Collect ->
          Run_ctx.record_audit_failure ctx
            { Run_ctx.experiment = Run_ctx.experiment ctx; seed; violations }
      | Run_ctx.Abort ->
          failwith
            (Printf.sprintf "Core_state.audit failed after %s (seed %d): %s"
               (Run_ctx.experiment ctx) seed
               (String.concat "; " violations)))

let with_system ?layout ?prepare ?(ctx = Run_ctx.default) ~seed policy f =
  let sys = System.create ~ctx ~seed ?layout ?prepare policy in
  System.warmup sys;
  let result = f sys in
  (* Every experiment run ends with a machine-wide coherence check: the
     authoritative core states, the kernel's backing view, the scheduler's
     placement maps and the accelerator mirror must all agree. *)
  check_audit ~ctx ~seed sys;
  let sim = System.sim sys in
  Run_ctx.record_engine_events ctx
    ~scheduled:(Sim.events_scheduled sim)
    ~processed:(Sim.events_processed sim);
  if Run_ctx.tracing ctx then harvest_run ~ctx ~seed sys;
  result

let start_bg_dp ?storage_target sys ~target ~until =
  let client = System.client sys in
  let rng = Rng.split (System.rng sys) "bg-dp" in
  let storage_target = Option.value storage_target ~default:target in
  Bgload.start client rng
    ~params:(Bgload.default_params ~target_util:target)
    ~cores:(System.net_cores sys) ~kind:Packet.Net_rx ~size:1400 ~until;
  Bgload.start client rng
    ~params:
      {
        (Bgload.default_params ~target_util:storage_target) with
        Bgload.per_packet_est = Time_ns.ns 5200;
      }
    ~cores:(System.storage_cores sys) ~kind:Packet.Storage_read ~size:4096
    ~until

(* Health monitors and log flushers are the admissions that must never be
   throttled: they are what tells the operator the NIC is overloaded. *)
let start_bg_cp sys =
  let rng = Rng.split (System.rng sys) "bg-cp" in
  let tasks = Monitor.standard_background ~rng ~affinity:[] () in
  List.iter
    (fun task -> System.spawn_cp ~cls:Taichi_core.Overload.Critical sys task)
    tasks

let start_cp_ecosystem sys ?(tasks = 48) ?(target_util = 1.8) () =
  let rng = Rng.split (System.rng sys) "cp-eco" in
  let eco =
    Monitor.production_ecosystem ~rng ~affinity:[] ~tasks ~target_util ()
  in
  List.iter (fun task -> System.spawn_cp sys task) eco

let start_cp_churn sys ~period ~work ~until =
  let sim = System.sim sys in
  let rng = Rng.split (System.rng sys) "cp-churn" in
  let params = { Synth_cp.default_params with total_work = work; phases = 3 } in
  let lock = Task.spinlock "churn-dev" in
  let counter = ref 0 in
  let held_h =
    Counters.handle
      (Taichi_hw.Machine.counters (System.machine sys))
      "overload.client_held.churn"
  in
  let rec tick () =
    if Sim.now sim < until then begin
      (* Churn is housekeeping: a well-behaved deferrable client watches
         the governor's backpressure signal and holds its submissions
         while the ladder is at Defer or deeper (they are counted, not
         silently lost — the post-storm report shows what the brownout
         cost). *)
      if System.cp_backpressure sys then
        Counters.incr_h
          (Taichi_hw.Machine.counters (System.machine sys))
          held_h
      else begin
        incr counter;
        let task =
          Synth_cp.make ~rng ~params ~locks:[ lock ] ~affinity:[]
            ~name:(Printf.sprintf "churn-%d" !counter)
            ()
        in
        System.spawn_cp ~cls:Taichi_core.Overload.Deferrable sys task
      end;
      ignore (Sim.after sim period tick)
    end
  in
  tick ()

let avg_turnaround_ms tasks =
  let finished = List.filter_map Task.turnaround tasks in
  match finished with
  | [] -> 0.0
  | _ ->
      let sum = List.fold_left ( + ) 0 finished in
      Time_ns.to_ms_f (sum / List.length finished)

let overhead_pct ~baseline ~measured =
  if baseline = 0.0 then 0.0 else (baseline -. measured) /. baseline *. 100.0
