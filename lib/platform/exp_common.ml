open Taichi_engine
open Taichi_hw
open Taichi_os
open Taichi_accel
open Taichi_core
open Taichi_faults
open Taichi_dataplane
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
    if Tenant.is_multi table then Tenant.ids table else []
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

(* --- building blocks the drivers share --------------------------------- *)

let versus_taichi points ~key ~label =
  List.concat_map
    (fun p ->
      List.map
        (fun (tag, policy) ->
          ( {
              Exp_desc.key = Printf.sprintf "%s-%s" (key p) tag;
              label = Printf.sprintf "%s, %s" (label p) (Policy.name policy);
            },
            (p, policy) ))
        [
          ("base", Policy.Static_partition); ("taichi", Policy.taichi_default);
        ])
    points

let guardrail = Config.default.Config.overload_p99_bound

let p99_us hist =
  if Histogram.count hist = 0 then 0.0
  else float_of_int (Histogram.percentile hist 99.0) /. 1e3

let lifecycle_of sys =
  match System.lifecycle sys with
  | Some lc -> lc
  | None -> failwith "lifecycle_of: the policy built no churn lifecycle"

let tenant_dp_cores sys ~tenant =
  List.filter_map
    (fun dp ->
      if Dp_service.tenant dp = tenant then Some (Dp_service.core dp) else None)
    (System.services sys)

(* Bgload schedules its per-core streams in list order, so [cores] keeps
   the caller's order within each core kind. *)
let start_dp_load sys ~rng ~cores ~net ~storage ~until =
  let client = System.client sys in
  let of_kind kind_cores = List.filter (fun c -> List.mem c kind_cores) cores in
  Bgload.start client rng
    ~params:(Bgload.default_params ~target_util:net)
    ~cores:(of_kind (System.net_cores sys))
    ~kind:Packet.Net_rx ~size:1400 ~until;
  Bgload.start client rng
    ~params:
      {
        (Bgload.default_params ~target_util:storage) with
        Bgload.per_packet_est = Time_ns.ns 5200;
      }
    ~cores:(of_kind (System.storage_cores sys))
    ~kind:Packet.Storage_read ~size:4096 ~until

let start_bg_dp ?storage_target sys ~target ~until =
  start_dp_load sys
    ~rng:(Rng.split (System.rng sys) "bg-dp")
    ~cores:(System.dp_cores sys) ~net:target
    ~storage:(Option.value storage_target ~default:target)
    ~until

let vm_params sys ~rng ~density =
  let p =
    Vm_lifecycle.at_density ~base:(Vm_lifecycle.default_params ~rng) density
  in
  {
    p with
    Vm_lifecycle.device =
      {
        p.Vm_lifecycle.device with
        Device_mgmt.dpcp_roundtrip = System.dpcp_roundtrip sys;
      };
  }

let vm_storm ?tenant sys ~rng ~density ~locks ~name ~recorder =
  let sim = System.sim sys in
  let locks =
    List.init 8 (fun i -> Task.spinlock (Printf.sprintf "%s-%d" locks i))
  in
  let params = vm_params sys ~rng ~density in
  List.init
    (max 1 (int_of_float (10.0 *. density)))
    (fun i ->
      Vm_lifecycle.startup_task ?tenant ~sim ~rng ~params ~locks ~affinity:[]
        ~name:(Printf.sprintf "%s-%d" name i)
        ~recorder ())

let spawn_staggered ?tenant sys ~spread tasks =
  let sim = System.sim sys in
  let gap = spread / max 1 (List.length tasks) in
  List.iteri
    (fun i task ->
      ignore
        (Sim.after sim (gap * i) (fun () ->
             System.spawn_cp ~cls:Overload.Standard ?tenant sys task)))
    tasks

let synth_task sys ~stream ~tenant ~work ~name =
  let rng = Rng.split (System.rng sys) (stream ^ name) in
  let params =
    { Synth_cp.default_params with Synth_cp.total_work = work; phases = 3 }
  in
  Synth_cp.make ~tenant ~rng ~params ~locks:[] ~affinity:[] ~name ()

let spawn_synth sys ~stream ~tenant ~count ~work ~tag =
  for i = 1 to count do
    System.spawn_cp ~tenant sys
      (synth_task sys ~stream ~tenant ~work
         ~name:(Printf.sprintf "%s-%d-%d" tag tenant i))
  done

let dp_burst sys rng n =
  let client = System.client sys in
  let dp_cores = Array.of_list (System.dp_cores sys) in
  for _ = 1 to n do
    let core = dp_cores.(Rng.int rng (Array.length dp_cores)) in
    Client.submit_background client ~kind:Packet.Net_rx ~size:1400 ~core
  done

(* A control-plane task that grabs a device lock and sits in a
   non-preemptible kernel routine for [hold] — the §3.2 pathology the
   CP-hang stream injects on demand. *)
let hang_task ~name ~lock ~hold =
  let stage = ref 0 in
  Task.create ~name
    ~step:(fun _ ->
      let s = !stage in
      incr stage;
      match s with
      | 0 -> Task.Acquire lock
      | 1 -> Task.Run { duration = hold; mode = Task.Kernel_nonpreemptible }
      | 2 -> Task.Release lock
      | _ -> Task.Exit)
    ()

let wire_injector sys inj ~prefix =
  let tc = Option.get (System.taichi sys) in
  Injector.attach_table inj (Taichi.state_table tc);
  let probe = Taichi.hw_probe tc in
  Hw_probe.set_suppressor probe
    (Some (fun ~core -> Injector.probe_suppress inj ~core));
  Injector.set_probe_misfire inj (fun ~core -> Hw_probe.misfire probe ~core);
  let lock = Task.spinlock (prefix ^ "-dev") in
  let hangs = ref 0 in
  Injector.set_cp_hang inj (fun ~hold ->
      incr hangs;
      System.spawn_cp sys
        (hang_task ~name:(Printf.sprintf "%s-hang-%d" prefix !hangs) ~lock
           ~hold));
  let burst_rng = Rng.split (System.rng sys) (prefix ^ "-burst") in
  Injector.set_dp_burst inj (fun ~size -> dp_burst sys burst_rng size)

let results_except key results =
  List.filter_map
    (fun (c, r) -> if c.Exp_desc.key = key then None else Some r)
    results

let check_repeat ~experiment ~base ~repeat fingerprint results =
  match
    (Exp_desc.result_opt results base, Exp_desc.result_opt results repeat)
  with
  | Some first, Some again when fingerprint first <> fingerprint again ->
      failwith
        (Printf.sprintf "%s: repeat run at the same seed diverged (%s vs %s)"
           experiment (fingerprint first) (fingerprint again))
  | _ -> ()

(* Health monitors and log flushers are the admissions that must never be
   throttled: they are what tells the operator the NIC is overloaded. *)
let start_bg_cp sys =
  let rng = Rng.split (System.rng sys) "bg-cp" in
  let tasks = Monitor.standard_background ~rng ~affinity:[] () in
  List.iter
    (fun task -> System.spawn_cp ~cls:Overload.Critical sys task)
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
        System.spawn_cp ~cls:Overload.Deferrable sys task
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
