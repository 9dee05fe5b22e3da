open Taichi_engine
open Taichi_hw
open Taichi_os
open Taichi_core
open Taichi_faults

(* Per-fault-class report rows: which injection counters feed the class
   and which recovery counters answer it. "Detected" is the detector
   firing (a retry timer, the resync scan, a watchdog rung); "recovered"
   the repair actions taken. For IPI/boot/mirror the detector IS the
   repair, so the two columns read the same counters. *)
let classes =
  [
    ( "ipi",
      [ "fault.ipi.dropped"; "fault.ipi.delayed"; "fault.lapic.lost" ],
      [ "recovery.ipi.retry" ],
      [ "recovery.ipi.retry" ] );
    ( "boot",
      [ "fault.boot.dropped" ],
      [ "recovery.boot.retry" ],
      [ "recovery.boot.retry" ] );
    ( "mirror",
      [ "fault.mirror.stalls"; "fault.mirror.corruptions" ],
      [ "recovery.mirror.resync" ],
      [ "recovery.mirror.resync" ] );
    ( "probe",
      [ "fault.probe.suppressed"; "fault.probe.misfires" ],
      [ "recovery.watchdog.resched" ],
      [ "recovery.watchdog.resched" ] );
    ( "cp-hang",
      [ "fault.cp.hangs" ],
      [ "recovery.watchdog.rescue"; "recovery.watchdog.forced" ],
      [ "recovery.watchdog.rescue"; "recovery.watchdog.forced" ] );
    ( "dp-burst",
      [ "fault.dp.bursts" ],
      [ "probe.hw.triggers" ],
      [ "sched.evictions.probe" ] );
  ]

let sum counters names =
  List.fold_left (fun acc n -> acc + Counters.get counters n) 0 names

let report_scenario ctx sys tc =
  let counters = Machine.counters (System.machine sys) in
  Run_ctx.printf ctx "  %-10s %9s %9s %9s\n" "class" "injected" "detected"
    "recovered";
  List.iter
    (fun (cls, injected, detected, recovered) ->
      Run_ctx.printf ctx "  %-10s %9d %9d %9d\n" cls (sum counters injected)
        (sum counters detected) (sum counters recovered))
    classes;
  let rcv = Taichi.recovery tc in
  let hist = Recovery.latency_hist rcv in
  if Histogram.count hist > 0 then
    Run_ctx.printf ctx
      "  recovery latency: n=%d p50=%.1fus p99=%.1fus max=%.1fus\n"
      (Histogram.count hist)
      (float_of_int (Histogram.percentile hist 50.0) /. 1000.0)
      (float_of_int (Histogram.percentile hist 99.0) /. 1000.0)
      (float_of_int (Histogram.max_value hist) /. 1000.0);
  Run_ctx.printf ctx "  degraded: engaged=%d rearmed=%d (events=%d)\n"
    (Recovery.engaged_count rcv)
    (Recovery.rearmed_count rcv)
    (Recovery.events rcv)

(* One matrix cell: a fault profile against a resilient policy. Returns
   the degraded-mode activity so the storm oracle can run over whatever
   subset of the matrix was selected. *)
let run_scenario ctx ~seed ~scale ~profile ~policy =
  let pname = profile.Injector.pname in
  Run_ctx.printf ctx "\n-- profile %s x policy %s (seed %d)\n" pname
    (Policy.name policy) seed;
  let injector = ref None in
  let prepare machine =
    let rng = Rng.split (Rng.create ~seed) ("chaos-" ^ pname) in
    let inj =
      Injector.create ~rng ~machine
        ~boot_vector:Kernel.default_config.Kernel.boot_vector profile
    in
    injector := Some inj
  in
  Exp_common.with_system ~ctx ~prepare ~seed policy (fun sys ->
      let inj = Option.get !injector in
      let tc = Option.get (System.taichi sys) in
      let sim = System.sim sys in
      (* Wire the fault classes that need stack or workload cooperation. *)
      Exp_common.wire_injector sys inj ~prefix:"chaos";
      (* Measurement window: faults live for [dur], then a fault-free
         grace long enough for the watchdog, the mirror resync scan and
         the degraded-mode quiet period to finish their work. *)
      let dur = Exp_common.scaled scale (Time_ns.ms 40) in
      let grace = Time_ns.ms 8 in
      let until = Sim.now sim + dur in
      Injector.arm inj ~until;
      Exp_common.start_bg_dp sys ~target:0.55 ~until;
      Exp_common.start_bg_cp sys;
      Exp_common.start_cp_churn sys ~period:(Time_ns.us 400)
        ~work:(Time_ns.us 150) ~until;
      System.advance sys (dur + grace);
      (* Oracles beyond the with_system audit. *)
      let stuck = Vcpu_sched.watchdog_stuck (Taichi.scheduler tc) in
      if stuck > 0 then
        failwith
          (Printf.sprintf
             "chaos %s/%s seed %d: %d vCPU(s) still hung past the watchdog \
              bound"
             pname (Policy.name policy) seed stuck);
      let rcv = Taichi.recovery tc in
      report_scenario ctx sys tc;
      (pname, Recovery.engaged_count rcv, Recovery.rearmed_count rcv))

let policies =
  [
    ("probe", Policy.Taichi (Config.resilient Config.default));
    ( "noprobe",
      Policy.Taichi (Config.resilient (Config.no_hw_probe Config.default)) );
  ]

let profiles = [ Injector.flaky; Injector.storm ]

let chaos_grid =
  List.concat_map
    (fun profile ->
      List.map
        (fun (ptag, policy) ->
          ( {
              Exp_desc.key =
                Printf.sprintf "%s-%s" profile.Injector.pname ptag;
              label =
                Printf.sprintf "profile %s, %s" profile.Injector.pname
                  (Policy.name policy);
            },
            (profile, policy) ))
        policies)
    profiles

let profile_names = List.map (fun p -> p.Injector.pname) profiles

(* The CI matrix pins one profile per job; the CLI turns
   --chaos-profile into a cell filter over these keys. *)
let profile_filter name cell =
  String.starts_with ~prefix:(name ^ "-") cell.Exp_desc.key

let chaos =
  Exp_desc.make ~name:"chaos"
    ~title:
      "CHAOS: seeded fault matrix x resilient Tai Chi (audit + watchdog \
       oracles)"
    ~description:
      "Deterministic fault-injection matrix (flaky and storm profiles) \
       against resilient Tai Chi variants, with audit, watchdog and \
       degraded-mode oracles"
    ~grid:chaos_grid
    ~run_cell:(fun ctx ~seed ~scale _cell (profile, policy) ->
      run_scenario ctx ~seed ~scale ~profile ~policy)
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let engaged =
        List.fold_left (fun acc (_, (_, e, _)) -> acc + e) 0 results
      in
      let rearmed =
        List.fold_left (fun acc (_, (_, _, r)) -> acc + r) 0 results
      in
      Run_ctx.printf ctx "\nmatrix total: degraded engaged=%d rearmed=%d\n"
        engaged rearmed;
      (* The storm profile is calibrated to push the recovery-event rate
         over the degraded threshold; when it ran, the fallback must have
         both engaged and re-armed somewhere in the matrix. *)
      if List.exists (fun (_, (pname, _, _)) -> pname = "storm") results
      then begin
        if engaged = 0 then
          failwith "chaos: degraded mode never engaged under the storm profile";
        if rearmed = 0 then
          failwith "chaos: degraded mode engaged but never re-armed"
      end)
