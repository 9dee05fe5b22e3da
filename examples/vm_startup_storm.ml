(* VM startup storm: the paper's motivating scenario (§3.1, Figs 2/17).

   A burst of concurrent VM creations hits a high-density node. Every VM
   needs its emulated devices initialized by control-plane tasks before
   QEMU can boot it, so CP scheduling directly gates the startup SLO.
   Compare the static baseline, Tai Chi, and Tai Chi with the overload
   governor armed (the brownout ladder that trades deferrable CP work for
   the data-plane tail — same machinery as
   `taichi_sim overload --overload on`).

   Run with: dune exec examples/vm_startup_storm.exe *)

open Taichi_engine
open Taichi_core
open Taichi_metrics
open Taichi_controlplane
open Taichi_platform

(* The startup verdicts each configuration is judged against: mean within
   the paper's SLO, tail within 2x of it, and the storm actually draining
   at a sane rate (an empty or stalled window reads VIOLATED, not 0/0). *)
let slos =
  [
    Slo.mean_latency "vm.startup.mean" Vm_lifecycle.slo;
    Slo.latency_p "vm.startup.p99" ~percentile:99.0 ~bound:(2 * Vm_lifecycle.slo);
    Slo.min_throughput "vm.startup.rate" ~per_sec:0.5;
  ]

let storm policy ~density =
  let sys = System.create ~seed:21 policy in
  System.warmup sys;
  let until = Sim.now (System.sim sys) + Time_ns.sec 60 in
  Exp_common.start_bg_dp sys ~target:0.12 ~until;
  Exp_common.start_cp_ecosystem sys ();
  let recorder = Recorder.create "startup" in
  let tasks =
    Exp_common.vm_storm sys
      ~rng:(Rng.split (System.rng sys) "storm")
      ~density ~locks:"device-driver" ~name:"vm" ~recorder
  in
  (* VM lifecycle work is ordinary tenant work: Standard class, the tier
     the governor throttles before ever touching Critical monitors. *)
  List.iter (fun t -> System.spawn_cp ~cls:Overload.Standard sys t) tasks;
  ignore (System.run_until_tasks_done sys tasks ~limit:(Time_ns.sec 60));
  let verdicts = Slo.check_all slos recorder ~duration:(System.elapsed sys) in
  let ladder =
    match System.taichi sys with
    | Some tc -> (
        match Taichi.overload tc with
        | Some ov ->
            Some (Overload.transitions ov, Overload.level_label (Overload.level ov))
        | None -> None)
    | None -> None
  in
  (Recorder.mean recorder /. 1e6, verdicts, ladder)

let report name (mean_ms, verdicts, ladder) =
  Printf.printf "  %s: mean %7.1f ms  (%.2fx SLO)\n" name mean_ms
    (mean_ms /. Time_ns.to_ms_f Vm_lifecycle.slo);
  List.iter (fun v -> Format.printf "      %a@." Slo.pp_verdict v) verdicts;
  (match ladder with
  | Some (transitions, final) ->
      Printf.printf "      governor: %d ladder transition(s), final level %s\n"
        transitions final
  | None -> ());
  print_newline ()

let () =
  let slo_ms = Time_ns.to_ms_f Vm_lifecycle.slo in
  Printf.printf
    "VM startup storm at 4x instance density (40 concurrent creations,\n\
     4x devices per VM), startup SLO = %.0f ms\n\n" slo_ms;
  let base = storm Policy.Static_partition ~density:4.0 in
  let taichi = storm Policy.taichi_default ~density:4.0 in
  let governed =
    storm (Policy.Taichi (Config.with_overload Config.default)) ~density:4.0
  in
  report "static baseline " base;
  report "Tai Chi         " taichi;
  report "Tai Chi+governor" governed;
  let mean (m, _, _) = m in
  Printf.printf "  reduction vs static: %.2fx\n\n" (mean base /. mean taichi);
  Printf.printf
    "Tai Chi turns the idle data-plane cycles into extra control-plane\n\
     capacity exactly when the startup storm needs it. The governor adds\n\
     a brownout ladder on top: under genuine overload it defers and sheds\n\
     low-priority CP work to keep the data-plane tail inside its\n\
     guardrail (see `taichi_sim overload --overload on`).\n"
