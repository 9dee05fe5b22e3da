open Taichi_engine
open Taichi_os
open Taichi_core
open Taichi_metrics
open Taichi_workloads
open Taichi_controlplane
open Exp_common

(* Worst data-plane disruption a bursty non-preemptible control-plane load
   can cause under a policy: max ping RTT minus baseline min. *)
let worst_disruption ctx ~seed policy =
  with_system ~ctx ~seed policy (fun sys ->
      let lock = Task.spinlock "t1-driver" in
      let rng = Rng.split (System.rng sys) "table1" in
      let np = Nonpreempt.create rng in
      let body =
        [
          Program.compute (Time_ns.us 500);
          Program.Gen
            (fun () ->
              Program.critical_section lock
                [ Program.kernel_routine (Nonpreempt.sample_long np) ]);
          Program.sleep (Time_ns.us 200);
        ]
      in
      let cp =
        Task.create ~name:"t1-cp"
          ~step:(Program.to_step [ Program.Forever body ])
          ()
      in
      (match policy with
      | Policy.Naive_coschedule | Policy.Uintr_coschedule
      | Policy.Dedicated_core ->
          cp.Task.affinity <- [ List.hd (System.net_cores sys) ]
      | _ -> ());
      System.spawn_cp sys cp;
      let recorder = Recorder.create "t1.rtt" in
      Ping.run (System.client sys) rng
        ~params:
          { Ping.default_params with interval = Time_ns.us 250; count = 1200 }
        ~core:(List.hd (System.net_cores sys))
        ~recorder;
      System.advance sys (Time_ns.ms 400);
      let s = Ping.summarize recorder in
      s.Ping.max_us -. s.Ping.min_us)

(* Measured analogues of the co-scheduling mechanism families the paper
   compares against: a dedicated-scheduler-core design (Shenango/
   Caladan), an OS-scheduler path (Concord-like), and a user-interrupt
   path (Skyloft/Vessel). All share the fatal property the measurement
   exposes: none can break a non-preemptible kernel routine. *)
let table1_grid =
  [
    ( { Exp_desc.key = "dedicated"; label = "Shenango/Caladan-style" },
      ( "Shenango/Caladan-style",
        Policy.Dedicated_core,
        "high (1 core burnt)",
        "partial" ) );
    ( { Exp_desc.key = "os-sched"; label = "Concord-style (OS sched)" },
      ("Concord-style (OS sched)", Policy.Naive_coschedule, "low", "partial") );
    ( { Exp_desc.key = "uintr"; label = "Skyloft/Vessel-style (UINTR)" },
      ( "Skyloft/Vessel-style (UINTR)",
        Policy.Uintr_coschedule,
        "low",
        "partial" ) );
    ( { Exp_desc.key = "taichi"; label = "Tai Chi" },
      ("Tai Chi", Policy.taichi_default, "low (no dedicated core)", "full") );
  ]

let table1 =
  Exp_desc.make ~name:"table1"
    ~title:"Table 1: prior work vs Tai Chi (measured analogues)"
    ~description:
      "Worst measured DP disruption under measured analogues of prior \
       co-scheduling mechanism families vs Tai Chi"
    ~grid:table1_grid
    ~run_cell:(fun ctx ~seed ~scale:_ _cell (name, policy, overhead, transp) ->
      (name, worst_disruption ctx ~seed policy, overhead, transp))
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let table =
        Table.create
          ~columns:
            [
              ("system", Table.Left);
              ("measured worst DP disruption", Table.Right);
              ("framework overhead", Table.Left);
              ("CP transparency", Table.Left);
            ]
      in
      List.iter
        (fun (_, (name, us, overhead, transparency)) ->
          let granularity =
            if us >= 1000.0 then
              Printf.sprintf "%.1fms (ms-scale)" (us /. 1000.0)
            else Printf.sprintf "%.0fus (us-scale)" us
          in
          Table.add_row table [ name; granularity; overhead; transparency ])
        results;
      Run_ctx.print_table ctx table;
      Run_ctx.printf ctx
        "Non-preemptible routines push every OS/interrupt-based mechanism to \
         ms-scale disruption; Tai Chi's vCPU encapsulation stays at us scale \
         (paper Table 1).\n")

let quick_cps ctx ~seed policy =
  with_system ~ctx ~seed policy (fun sys ->
      let sim = System.sim sys in
      let dur = Time_ns.ms 200 in
      let until = Sim.now sim + dur in
      start_bg_cp sys;
      let rng = Rng.split (System.rng sys) "table2" in
      let r =
        Netperf.tcp_crr (System.client sys) rng ~cores:(System.net_cores sys)
          ~until
      in
      System.advance sys (dur + Time_ns.ms 5);
      Rr_engine.tps r ~duration:dur)

let table2_grid =
  [
    ( { Exp_desc.key = "base"; label = "static baseline" },
      Policy.Static_partition );
    ( { Exp_desc.key = "type1"; label = "type-1 (vDP)" },
      Policy.Taichi_vdp Config.default );
    ({ Exp_desc.key = "type2"; label = "type-2 (QEMU+KVM)" }, Policy.Type2);
    ({ Exp_desc.key = "taichi"; label = "Tai Chi" }, Policy.taichi_default);
  ]

let table2 =
  Exp_desc.make ~name:"table2"
    ~title:"Table 2: type-1 / type-2 / Tai Chi (measured DP performance)"
    ~description:
      "Qualitative type-1 / type-2 / Tai Chi comparison anchored on measured \
       DP performance"
    ~grid:table2_grid
    ~run_cell:(fun ctx ~seed ~scale:_ _cell policy ->
      quick_cps ctx ~seed policy)
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let base = Exp_desc.result results "base" in
      let pct v = Printf.sprintf "%.1f%% of baseline" (v /. base *. 100.0) in
      let table =
        Table.create
          ~columns:
            [
              ("property", Table.Left);
              ("type-1 (vDP)", Table.Left);
              ("type-2 (QEMU+KVM)", Table.Left);
              ("Tai Chi", Table.Left);
            ]
      in
      Table.add_row table
        [ "DP residency"; "guest context (vCPU)"; "SmartNIC OS"; "SmartNIC OS" ];
      Table.add_row table
        [
          "DP performance";
          pct (Exp_desc.result results "type1");
          pct (Exp_desc.result results "type2");
          pct (Exp_desc.result results "taichi");
        ];
      Table.add_row table
        [ "CP residency"; "guest context"; "guest OS"; "SmartNIC OS (vCPU)" ];
      Table.add_row table [ "OS count"; "1"; "2"; "1" ];
      Table.add_row table
        [
          "DP-CP IPC";
          "native";
          Printf.sprintf "broken (RPC, %s)"
            (Time_ns.to_string (Policy.dpcp_roundtrip Policy.Type2));
          Printf.sprintf "native (%s)"
            (Time_ns.to_string (Policy.dpcp_roundtrip Policy.taichi_default));
        ];
      Run_ctx.print_table ctx table)
