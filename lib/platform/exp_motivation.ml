open Taichi_engine
open Taichi_os
open Taichi_accel
open Taichi_metrics
open Taichi_workloads
open Taichi_controlplane
open Exp_common

(* --- Fig 2 ---------------------------------------------------------------- *)

(* One density point: a storm of concurrent VM creations on the static
   baseline. Returns (avg CP execution ms, avg VM startup ms). *)
let startup_storm ctx sys ~rng ~density =
  let recorder = Recorder.create "vm.startup" in
  let tasks =
    vm_storm sys ~rng ~density ~locks:"device-driver" ~name:"vm-start"
      ~recorder
  in
  List.iter (fun task -> System.spawn_cp sys task) tasks;
  let ok = System.run_until_tasks_done sys tasks ~limit:(Time_ns.sec 60) in
  if not ok then Run_ctx.printf ctx "  (warning: storm did not finish in limit)\n";
  let cp_ms = avg_turnaround_ms tasks in
  let startup_ms = Recorder.mean recorder /. 1e6 in
  (cp_ms, startup_ms)

let densities = [ 1.0; 2.0; 3.0; 4.0 ]

let fig2_grid =
  List.map
    (fun density ->
      ( {
          Exp_desc.key = Printf.sprintf "%.0fx" density;
          label = Printf.sprintf "density %.0fx, baseline" density;
        },
        density ))
    densities

let fig2 =
  Exp_desc.make ~name:"fig2"
    ~title:
      "Figure 2: CP execution & VM startup vs instance density (baseline)"
    ~description:
      "CP execution time and VM startup degradation vs instance density on \
       the static baseline"
    ~grid:fig2_grid
    ~run_cell:(fun ctx ~seed ~scale:_ _cell density ->
      with_system ~ctx ~seed Policy.Static_partition (fun sys ->
          let until = Sim.now (System.sim sys) + Time_ns.sec 60 in
          start_bg_dp sys ~target:0.12 ~until;
          start_cp_ecosystem sys ();
          let rng = Rng.split (System.rng sys) "fig2" in
          let cp, st = startup_storm ctx sys ~rng ~density in
          (density, cp, st)))
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let results = List.map snd results in
      let slo_ms = Time_ns.to_ms_f Vm_lifecycle.slo in
      let base_cp = match results with (_, cp, _) :: _ -> cp | [] -> 1.0 in
      let table =
        Table.create
          ~columns:
            [
              ("density", Table.Right);
              ("cp_exec_ms", Table.Right);
              ("cp_exec_norm", Table.Right);
              ("vm_startup_ms", Table.Right);
              ("startup_vs_slo", Table.Right);
            ]
      in
      List.iter
        (fun (d, cp, st) ->
          Table.add_row table
            [
              Printf.sprintf "%.0fx" d;
              Table.cell_f cp;
              Printf.sprintf "%.1fx" (cp /. base_cp);
              Table.cell_f st;
              Printf.sprintf "%.2fx" (st /. slo_ms);
            ])
        results;
      Run_ctx.print_table ctx table;
      Run_ctx.printf ctx
        "Paper shape: CP exec ~8x worse and startup ~3.1x over SLO at 4x \
         density.\n")

(* --- Fig 3 ---------------------------------------------------------------- *)

let fig3 =
  Exp_desc.single ~name:"fig3"
    ~title:"Figure 3: CDF of data-plane CPU utilization"
    ~description:
      "CDF of per-second data-plane utilization from the regenerated \
       production population, plus a simulated validation point"
    (fun ctx ~seed ~scale ->
      let rng = Rng.create ~seed in
      let n = max 10_000 (int_of_float (1_200_000.0 *. scale)) in
      let samples = Production_trace.sample_utilizations rng ~n in
      let xs = [ 0.05; 0.10; 0.15; 0.20; 0.25; 0.325; 0.50; 0.75; 1.0 ] in
      let table =
        Table.create
          ~columns:[ ("util_below", Table.Right); ("fraction", Table.Right) ]
      in
      List.iter
        (fun (x, y) ->
          Table.add_row table
            [ Printf.sprintf "%.1f%%" (x *. 100.0); Printf.sprintf "%.4f" y ])
        (Production_trace.cdf_points samples ~xs);
      Run_ctx.print_table ctx table;
      Run_ctx.printf ctx
        "%d samples, mean util %.1f%%; fraction below 32.5%% = %.2f%% (paper: \
         99.68%%)\n"
        n
        (Production_trace.mean samples *. 100.0)
        (Production_trace.fraction_below samples 0.325 *. 100.0);
      (* Simulated validation: drive the modeled data plane at the trace mean
         and check the measured useful utilization agrees. *)
      with_system ~ctx ~seed Policy.Static_partition (fun sys ->
          let d = scaled scale (Time_ns.sec 2) in
          let until = Sim.now (System.sim sys) + d in
          start_bg_dp sys ~target:0.10 ~until;
          System.advance sys d;
          Run_ctx.printf ctx
            "Simulated validation: offered 10.0%%, measured useful DP \
             utilization %.1f%%\n"
            (System.dp_work_utilization sys *. 100.0)))

(* --- Fig 4 ---------------------------------------------------------------- *)

(* A CP task that alternates user compute with a long spinlock-protected
   non-preemptible routine, colocated with a latency-probed data-plane
   core. *)
let spike_scenario ctx ~seed policy =
  with_system ~ctx ~seed policy (fun sys ->
      let lock = Task.spinlock "fig4-driver" in
      let routine = Time_ns.ms 4 in
      let body =
        [ Program.compute (Time_ns.ms 1) ]
        @ Program.critical_section lock [ Program.kernel_routine routine ]
        @ [ Program.sleep (Time_ns.us 300) ]
      in
      let cp =
        Task.create ~name:"fig4-cp"
          ~step:(Program.to_step [ Program.Forever body ])
          ()
      in
      (match policy with
      | Policy.Naive_coschedule ->
          (* Pin onto the probed data-plane core, the naive colocation. *)
          cp.Task.affinity <- [ List.hd (System.net_cores sys) ]
      | _ -> ());
      System.spawn_cp sys cp;
      let probe_core = List.hd (System.net_cores sys) in
      let recorder = Recorder.create "fig4.rtt" in
      let rng = Rng.split (System.rng sys) "fig4" in
      Ping.run (System.client sys) rng
        ~params:
          { Ping.default_params with interval = Time_ns.us 200; count = 2000 }
        ~core:probe_core ~recorder;
      System.advance sys (Time_ns.ms 500);
      let dp = List.hd (System.net_services sys) in
      ( Ping.summarize recorder,
        Taichi_dataplane.Dp_service.spikes dp,
        Kernel.max_deferred_wait (System.kernel sys) ))

let fig4_grid =
  [
    ( { Exp_desc.key = "naive"; label = "naive co-schedule" },
      Policy.Naive_coschedule );
    ({ Exp_desc.key = "taichi"; label = "taichi" }, Policy.taichi_default);
  ]

let fig4 =
  Exp_desc.make ~name:"fig4"
    ~title:"Figure 4: latency spike from a non-preemptible CP routine"
    ~description:
      "Worst-case DP latency spike caused by a non-preemptible CP routine, \
       naive co-scheduling vs Tai Chi"
    ~grid:fig4_grid
    ~run_cell:(fun ctx ~seed ~scale:_ _cell policy ->
      spike_scenario ctx ~seed policy)
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let get = Exp_desc.result results in
      let naive, naive_spikes, naive_wait = get "naive" in
      let taichi, taichi_spikes, _ = get "taichi" in
      let table =
        Table.create
          ~columns:
            [
              ("scheduler", Table.Left);
              ("rtt_avg_us", Table.Right);
              ("rtt_max_us", Table.Right);
              ("spikes>100us", Table.Right);
            ]
      in
      Table.add_row table
        [
          "naive co-schedule";
          Table.cell_f naive.Ping.avg_us;
          Table.cell_f naive.Ping.max_us;
          string_of_int naive_spikes;
        ];
      Table.add_row table
        [
          "taichi";
          Table.cell_f taichi.Ping.avg_us;
          Table.cell_f taichi.Ping.max_us;
          string_of_int taichi_spikes;
        ];
      Run_ctx.print_table ctx table;
      Run_ctx.printf ctx
        "Naive worst reclaim wait (T2-T3 of Fig 4): %s; Tai Chi breaks the \
         routine via vCPU preemption.\n"
        (Time_ns.to_string naive_wait))

(* --- Fig 5 ---------------------------------------------------------------- *)

let fig5 =
  Exp_desc.single ~name:"fig5"
    ~title:"Figure 5: long non-preemptible routine durations"
    ~description:
      "Duration distribution of long non-preemptible kernel routines \
       (sampled population)"
    (fun ctx ~seed ~scale ->
      let rng = Rng.create ~seed in
      let sampler = Nonpreempt.create rng in
      let n = max 10_000 (int_of_float (456_000.0 *. scale)) in
      let hist = Histogram.create () in
      for _ = 1 to n do
        Histogram.add hist (Nonpreempt.sample_long sampler)
      done;
      let table =
        Table.create
          ~columns:
            [
              ("duration", Table.Left);
              ("count", Table.Right);
              ("share", Table.Right);
            ]
      in
      List.iter
        (fun (label, lo, hi) ->
          let share =
            Histogram.fraction_below hist hi -. Histogram.fraction_below hist lo
          in
          Table.add_row table
            [
              label;
              string_of_int (int_of_float (share *. float_of_int n));
              Table.cell_pct share;
            ])
        Nonpreempt.fig5_buckets;
      Run_ctx.print_table ctx table;
      Run_ctx.printf ctx "n=%d max=%s (paper: 94.5%% in 1-5ms, max 67ms)\n" n
        (Time_ns.to_string (Histogram.max_value hist)))

(* --- Fig 6 ---------------------------------------------------------------- *)

let fig6 =
  Exp_desc.single ~name:"fig6"
    ~title:"Figure 6: I/O descriptor timing breakdown"
    ~description:
      "Per-stage descriptor timing through the accelerator pipeline and the \
       hardware window that hides the vCPU switch"
    (fun ctx ~seed ~scale:_ ->
      with_system ~ctx ~seed Policy.Static_partition (fun sys ->
          let core = List.hd (System.net_cores sys) in
          let finished = ref None in
          (* Copy the stage timestamps inside the completion callback:
             the descriptor's arena slot recycles once the hook chain
             returns. *)
          Client.submit (System.client sys) ~kind:Packet.Net_rx ~size:1400 ~core
            ~on_done:(fun pkt ->
              finished :=
                Some (pkt.Packet.t_submit, pkt.Packet.t_ring, pkt.Packet.t_done))
            ();
          System.advance sys (Time_ns.ms 1);
          match !finished with
          | None -> Run_ctx.printf ctx "descriptor did not complete?!\n"
          | Some (t_submit, t_ring, t_done) ->
              let cfg = Pipeline.config (System.pipeline sys) in
              let table =
                Table.create
                  ~columns:[ ("stage", Table.Left); ("duration", Table.Right) ]
              in
              Table.add_row table
                [
                  "(2) accelerator preprocess";
                  Time_ns.to_string cfg.Pipeline.preprocess;
                ];
              Table.add_row table
                [
                  "(3) transfer to shared ring";
                  Time_ns.to_string cfg.Pipeline.transfer;
                ];
              Table.add_row table
                [
                  "(4) software processing";
                  Time_ns.to_string (t_done - t_ring);
                ];
              Table.add_row table
                [
                  "total (submit to done)";
                  Time_ns.to_string (t_done - t_submit);
                ];
              Run_ctx.print_table ctx table;
              Run_ctx.printf ctx
                "Hardware window (2)+(3) = %s hides the 2us vCPU switch \
                 (Observation 4).\n"
                (Time_ns.to_string (Pipeline.window (System.pipeline sys)))))
