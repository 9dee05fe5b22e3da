open Taichi_engine
open Taichi_os
open Taichi_core
open Taichi_metrics
open Taichi_workloads
open Taichi_controlplane
open Exp_common

type outcome = {
  label : string;
  cp_ms : float;  (** avg synth_cp turnaround *)
  rtt_max_us : float;
  vm_exits : int;
  placements : int;
  unsafe : int;
  max_spin_ms : float;  (** worst per-task spin time: lock-safety damage *)
}

let scenario ctx ~seed label config =
  with_system ~ctx ~seed (Policy.Taichi config) (fun sys ->
      let sim = System.sim sys in
      let horizon = Time_ns.sec 4 in
      let until = Sim.now sim + horizon in
      start_bg_dp sys ~target:0.15 ~until;
      start_bg_cp sys;
      (* Latency probe on one core. *)
      let rtt = Recorder.create "rtt" in
      let rng = Rng.split (System.rng sys) "abl" in
      Ping.run (System.client sys) rng
        ~params:{ Ping.default_params with interval = Time_ns.ms 1; count = 2000 }
        ~core:(List.hd (System.net_cores sys))
        ~recorder:rtt;
      (* Lock-heavy CP burst. *)
      let tasks =
        Synth_cp.make_batch ~rng
          ~params:{ Synth_cp.default_params with total_work = Time_ns.ms 25 }
          ~locks:[ Task.spinlock "abl-a"; Task.spinlock "abl-b" ]
          ~affinity:[] ~count:24 ()
      in
      List.iter (fun t -> System.spawn_cp sys t) tasks;
      ignore (System.run_until_tasks_done sys tasks ~limit:horizon);
      let tc = match System.taichi sys with Some tc -> tc | None -> assert false in
      let s = Vcpu_sched.stats (Taichi.scheduler tc) in
      let max_spin =
        List.fold_left (fun acc t -> max acc t.Task.spin_time) 0 tasks
      in
      {
        label;
        cp_ms = avg_turnaround_ms tasks;
        rtt_max_us =
          (if Recorder.count rtt = 0 then 0.0
           else Time_ns.to_us_f (Recorder.max_value rtt));
        vm_exits = Taichi.total_vm_exits tc;
        placements = s.Vcpu_sched.placements;
        unsafe = s.Vcpu_sched.unsafe_suspensions;
        max_spin_ms = Time_ns.to_ms_f max_spin;
      })

let variants =
  [
    ("full", "full taichi", Config.default);
    ("fixed-slice", "fixed slice", Config.fixed_slice Config.default);
    ("fixed-threshold", "fixed threshold", Config.fixed_threshold Config.default);
    ("unsafe-locks", "no lock-safe resched", Config.unsafe_locks Config.default);
  ]

let ablations_grid =
  List.map
    (fun (key, label, config) ->
      ({ Exp_desc.key; label }, (label, config)))
    variants

let ablations =
  Exp_desc.make ~name:"ablations"
    ~title:"Ablations: adaptive slice / adaptive threshold / lock safety"
    ~description:
      "Disable each Tai Chi mechanism in turn (adaptive slice, adaptive \
       threshold, lock-safe rescheduling) and measure the damage"
    ~grid:ablations_grid
    ~run_cell:(fun ctx ~seed ~scale:_ _cell (label, config) ->
      scenario ctx ~seed label config)
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let table =
        Table.create
          ~columns:
            [
              ("variant", Table.Left);
              ("cp_avg_ms", Table.Right);
              ("rtt_max_us", Table.Right);
              ("vm_exits", Table.Right);
              ("placements", Table.Right);
              ("unsafe_susp", Table.Right);
              ("max_spin_ms", Table.Right);
            ]
      in
      List.iter
        (fun (_, o) ->
          Table.add_row table
            [
              o.label;
              Table.cell_f o.cp_ms;
              Table.cell_f o.rtt_max_us;
              string_of_int o.vm_exits;
              string_of_int o.placements;
              string_of_int o.unsafe;
              Table.cell_f o.max_spin_ms;
            ])
        results;
      Run_ctx.print_table ctx table;
      Run_ctx.printf ctx
        "Expected: fixed slice raises VM-exit pressure; fixed threshold \
         either wastes idle cycles or false-positives; disabling lock safety \
         produces unsafe suspensions and inflated spin times.\n")
