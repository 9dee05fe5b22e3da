open Taichi_engine
open Taichi_os
open Taichi_accel
open Taichi_core
open Taichi_metrics
open Taichi_workloads
open Taichi_controlplane
open Exp_common

(* Standard control-plane pressure during data-plane benchmarks: the
   long-lived background plus bursty short tasks offering more work than
   the dedicated CP cores can absorb, so Tai Chi has sustained vCPU demand
   to co-schedule (the §6 experiments all run under CP stress). *)
let cp_pressure sys ~until =
  start_bg_cp sys;
  start_cp_churn sys ~period:(Time_ns.ms 1) ~work:(Time_ns.ms 5) ~until

let four_systems =
  [
    ("base", Policy.Static_partition);
    ("taichi", Policy.taichi_default);
    ("vdp", Policy.Taichi_vdp Config.default);
    ("type2", Policy.Type2);
  ]

let four_system_cells =
  List.map
    (fun (tag, policy) ->
      ({ Exp_desc.key = tag; label = Policy.name policy }, policy))
    four_systems

(* --- Fig 12: netperf tcp_crr ---------------------------------------------- *)

let fig12 =
  Exp_desc.make ~name:"fig12"
    ~title:"Figure 12: netperf tcp_crr across four systems"
    ~description:
      "netperf tcp_crr connections/s across baseline / Tai Chi / Tai Chi-vDP \
       / type-2"
    ~grid:four_system_cells
    ~run_cell:(fun ctx ~seed ~scale _cell policy ->
      let dur = scaled scale (Time_ns.ms 400) in
      with_system ~ctx ~seed policy (fun sys ->
          let sim = System.sim sys in
          let until = Sim.now sim + dur in
          cp_pressure sys ~until;
          let rng = Rng.split (System.rng sys) "crr" in
          let r =
            Netperf.tcp_crr (System.client sys) rng
              ~cores:(System.net_cores sys) ~until
          in
          System.advance sys (dur + Time_ns.ms 5);
          ( Policy.name policy,
            Rr_engine.tps r ~duration:dur,
            Rr_engine.rx_pps r ~duration:dur,
            Rr_engine.tx_pps r ~duration:dur )))
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let results = List.map snd results in
      let base_cps =
        match results with (_, cps, _, _) :: _ -> cps | [] -> 1.0
      in
      let table =
        Table.create
          ~columns:
            [
              ("system", Table.Left);
              ("cps", Table.Right);
              ("avg_rx_pps", Table.Right);
              ("avg_tx_pps", Table.Right);
              ("vs_baseline", Table.Right);
            ]
      in
      List.iter
        (fun (name, cps, rx, tx) ->
          Table.add_row table
            [
              name;
              Table.cell_f cps;
              Table.cell_f rx;
              Table.cell_f tx;
              Printf.sprintf "%+.1f%%" ((cps -. base_cps) /. base_cps *. 100.0);
            ])
        results;
      Run_ctx.print_table ctx table;
      Run_ctx.printf ctx
        "Paper shape: Tai Chi ~-0.2%%, vDP ~-8%%, type-2 ~-26%% vs baseline.\n")

(* --- Fig 13: fio ------------------------------------------------------------ *)

let fig13 =
  Exp_desc.make ~name:"fig13"
    ~title:"Figure 13: fio 4KiB IOPS across four systems"
    ~description:"fio 4 KiB random-read IOPS across the same four systems"
    ~grid:four_system_cells
    ~run_cell:(fun ctx ~seed ~scale _cell policy ->
      let dur = scaled scale (Time_ns.ms 400) in
      let params = Fio.default_params in
      with_system ~ctx ~seed policy (fun sys ->
          let sim = System.sim sys in
          let until = Sim.now sim + dur in
          cp_pressure sys ~until;
          let rng = Rng.split (System.rng sys) "fio" in
          let r =
            Fio.run (System.client sys) rng ~params
              ~cores:(System.storage_cores sys) ~until
          in
          System.advance sys (dur + Time_ns.ms 5);
          ( Policy.name policy,
            Fio.iops r ~duration:dur,
            Fio.bandwidth_mb r ~params ~duration:dur )))
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let results = List.map snd results in
      let base = match results with (_, iops, _) :: _ -> iops | [] -> 1.0 in
      let table =
        Table.create
          ~columns:
            [
              ("system", Table.Left);
              ("iops", Table.Right);
              ("bw_MB/s", Table.Right);
              ("vs_baseline", Table.Right);
            ]
      in
      List.iter
        (fun (name, iops, bw) ->
          Table.add_row table
            [
              name;
              Table.cell_f iops;
              Table.cell_f bw;
              Printf.sprintf "%+.1f%%" ((iops -. base) /. base *. 100.0);
            ])
        results;
      Run_ctx.print_table ctx table;
      Run_ctx.printf ctx
        "Paper shape: Tai Chi ~-0.06%%, vDP ~-6%%, type-2 ~-25.7%% vs \
         baseline.\n")

(* --- Table 5: ping RTT ------------------------------------------------------ *)

let table5_grid =
  [
    ( { Exp_desc.key = "base"; label = "baseline" },
      ("baseline", Policy.Static_partition) );
    ( { Exp_desc.key = "taichi"; label = "taichi" },
      ("taichi", Policy.taichi_default) );
    ( { Exp_desc.key = "noprobe"; label = "taichi w/o HW probe" },
      ("taichi w/o HW probe", Policy.taichi_no_hw_probe) );
  ]

let table5 =
  Exp_desc.make ~name:"table5"
    ~title:"Table 5: ping RTT across three mechanisms"
    ~description:
      "ping RTT: baseline vs Tai Chi vs Tai Chi without the hardware \
       workload probe"
    ~grid:table5_grid
    ~run_cell:(fun ctx ~seed ~scale _cell (name, policy) ->
      let count = max 400 (int_of_float (3000.0 *. scale)) in
      let summary =
        with_system ~ctx ~seed policy (fun sys ->
            let sim = System.sim sys in
            let interval = Time_ns.ms 2 in
            let dur = (count * interval) + Time_ns.ms 50 in
            let until = Sim.now sim + dur in
            cp_pressure sys ~until;
            let recorder = Recorder.create "ping.rtt" in
            let rng = Rng.split (System.rng sys) "ping" in
            Ping.run (System.client sys) rng
              ~params:{ Ping.default_params with interval; count }
              ~core:(List.hd (System.net_cores sys))
              ~recorder;
            System.advance sys dur;
            Ping.summarize recorder)
      in
      (name, summary))
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let table =
        Table.create
          ~columns:
            [
              ("mechanism", Table.Left);
              ("min_us", Table.Right);
              ("avg_us", Table.Right);
              ("max_us", Table.Right);
              ("mdev_us", Table.Right);
            ]
      in
      List.iter
        (fun (_, (name, summary)) ->
          Table.add_row table
            [
              name;
              Table.cell_f summary.Ping.min_us;
              Table.cell_f summary.Ping.avg_us;
              Table.cell_f summary.Ping.max_us;
              Table.cell_f summary.Ping.mdev_us;
            ])
        results;
      Run_ctx.print_table ctx table;
      Run_ctx.printf ctx
        "Paper shape: without the probe min/avg/max/mdev inflate (+23%%/+23%%/\
         ~3x/+80%%); with it Tai Chi matches the baseline.\n")

(* --- Fig 14: normalized netperf/sockperf ------------------------------------ *)

(* Latency-limited closed-loop variants: offered load below the data-plane
   ceiling, so scheduling-induced latency shows up as throughput. *)
let rr_case ~connections ~stages ~think client rng ~cores ~until =
  Rr_engine.run client rng
    ~params:{ Rr_engine.connections; stages; think; ramp = Time_ns.ms 1 }
    ~cores ~until

(* Each run-case is one system build; the tcp_stream case contributes two
   display rows (rx and tx pps), so a cell's result is a float list. *)
let fig14_runs = [ "udp_stream"; "tcp_stream"; "tcp_rr"; "sock_tcp"; "sock_udp" ]

let fig14_dur = Time_ns.ms 500

let fig14_case ctx ~seed ~scale policy case =
  let dur = scaled scale fig14_dur in
  let run f =
    with_system ~ctx ~seed policy (fun sys ->
        let sim = System.sim sys in
        let until = Sim.now sim + dur in
        cp_pressure sys ~until;
        let rng = Rng.split (System.rng sys) "fig14" in
        let out = f sys rng until in
        System.advance sys (dur + Time_ns.ms 5);
        out ())
  in
  let cores sys = System.net_cores sys in
  match case with
  | "udp_stream" ->
      run (fun sys rng until ->
          let r =
            Netperf.stream ~gap_mean:(Time_ns.us 15) (System.client sys) rng
              ~connections:8 ~window:1 ~size:1400 ~with_acks:false
              ~cores:(cores sys) ~until
          in
          fun () -> [ Netperf.stream_rx_pps r ~duration:dur ])
  | "tcp_stream" ->
      run (fun sys rng until ->
          let r =
            Netperf.stream ~gap_mean:(Time_ns.us 15) (System.client sys) rng
              ~connections:8 ~window:1 ~size:1460 ~with_acks:true
              ~cores:(cores sys) ~until
          in
          fun () ->
            [
              Netperf.stream_rx_pps r ~duration:dur;
              Netperf.stream_tx_pps r ~duration:dur;
            ])
  | "tcp_rr" ->
      run (fun sys rng until ->
          let r =
            rr_case ~connections:48
              ~stages:
                [
                  Rr_engine.stage ~kind:Packet.Net_rx ~size:128
                    ~gap_after:(Time_ns.us 3) ();
                  Rr_engine.stage ~kind:Packet.Net_tx ~size:128 ~rx:false ();
                ]
              ~think:(Time_ns.us 14) (System.client sys) rng ~cores:(cores sys)
              ~until
          in
          fun () -> [ Rr_engine.tps r ~duration:dur ])
  | "sock_tcp" ->
      run (fun sys rng until ->
          let r =
            rr_case ~connections:32
              ~stages:
                [
                  Rr_engine.stage ~conn_setup:true ~kind:Packet.Net_rx ~size:64
                    ~gap_after:(Time_ns.us 3) ();
                  Rr_engine.stage ~kind:Packet.Net_tx ~size:256 ~rx:false ();
                ]
              ~think:(Time_ns.us 30) (System.client sys) rng ~cores:(cores sys)
              ~until
          in
          fun () -> [ Rr_engine.tps r ~duration:dur ])
  | "sock_udp" ->
      run (fun sys rng until ->
          let r =
            Sockperf.udp (System.client sys) rng ~cores:(cores sys) ~until
          in
          fun () -> [ (Sockperf.udp_summary r).Sockperf.avg_us ])
  | case -> invalid_arg ("fig14: unknown case " ^ case)

let fig14_grid = versus_taichi fig14_runs ~key:Fun.id ~label:Fun.id

let fig14_cases =
  [ "udp_stream(rx_pps)"; "tcp_stream(rx_pps)"; "tcp_stream(tx_pps)";
    "tcp_rr(tps)"; "sockperf_tcp(cps)"; "sockperf_udp(avg_lat)" ]

let fig14 =
  Exp_desc.make ~name:"fig14"
    ~title:"Figure 14: normalized netperf/sockperf performance under Tai Chi"
    ~description:
      "Normalized netperf/sockperf performance under Tai Chi vs the static \
       baseline, six microbenchmark cases"
    ~grid:fig14_grid
    ~run_cell:(fun ctx ~seed ~scale _cell (case, policy) ->
      fig14_case ctx ~seed ~scale policy case)
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let vals tag =
        List.concat_map
          (fun case ->
            Exp_desc.result results (Printf.sprintf "%s-%s" case tag))
          fig14_runs
      in
      let base = vals "base" and taichi = vals "taichi" in
      let table =
        Table.create
          ~columns:
            [
              ("case", Table.Left);
              ("baseline", Table.Right);
              ("taichi", Table.Right);
              ("overhead", Table.Right);
            ]
      in
      let overheads = ref [] in
      List.iteri
        (fun i name ->
          let b = List.nth base i and t = List.nth taichi i in
          (* The latency case is lower-is-better. *)
          let ov =
            if i = 5 then (t -. b) /. b *. 100.0 else (b -. t) /. b *. 100.0
          in
          overheads := ov :: !overheads;
          Table.add_row table
            [ name; Table.cell_f b; Table.cell_f t; Printf.sprintf "%.2f%%" ov ])
        fig14_cases;
      Run_ctx.print_table ctx table;
      let ovs = !overheads in
      Run_ctx.printf ctx
        "Average overhead %.2f%% (paper: 0.6%% avg, 1.92%% peak).\n"
        (List.fold_left ( +. ) 0.0 ovs /. float_of_int (List.length ovs)))

(* --- Fig 15: MySQL ----------------------------------------------------------- *)

let two_policy_cells =
  [
    ( { Exp_desc.key = "base"; label = "static baseline" },
      Policy.Static_partition );
    ({ Exp_desc.key = "taichi"; label = "taichi" }, Policy.taichi_default);
  ]

let fig15 =
  Exp_desc.make ~name:"fig15"
    ~title:"Figure 15: MySQL (192 sysbench threads) under Tai Chi"
    ~description:"MySQL (sysbench) throughput under Tai Chi vs baseline"
    ~grid:two_policy_cells
    ~run_cell:(fun ctx ~seed ~scale _cell policy ->
      let dur = scaled scale (Time_ns.sec 4) in
      with_system ~ctx ~seed policy (fun sys ->
          let sim = System.sim sys in
          let until = Sim.now sim + dur in
          cp_pressure sys ~until;
          let rng = Rng.split (System.rng sys) "mysql" in
          let r =
            Mysql.run (System.client sys) rng ~params:Mysql.default_params
              ~net_cores:(System.net_cores sys)
              ~storage_cores:(System.storage_cores sys)
              ~duration:dur
          in
          System.advance sys (dur + Time_ns.ms 5);
          Mysql.metrics r))
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let b = Exp_desc.result results "base"
      and t = Exp_desc.result results "taichi" in
      let table =
        Table.create
          ~columns:
            [
              ("metric", Table.Left);
              ("baseline", Table.Right);
              ("taichi", Table.Right);
              ("overhead", Table.Right);
            ]
      in
      let row name bv tv =
        Table.add_row table
          [
            name;
            Table.cell_f bv;
            Table.cell_f tv;
            Printf.sprintf "%.2f%%" (overhead_pct ~baseline:bv ~measured:tv);
          ]
      in
      row "max_query/s" b.Mysql.max_query t.Mysql.max_query;
      row "avg_query/s" b.Mysql.avg_query t.Mysql.avg_query;
      row "max_trans/s" b.Mysql.max_trans t.Mysql.max_trans;
      row "avg_trans/s" b.Mysql.avg_trans t.Mysql.avg_trans;
      Run_ctx.print_table ctx table;
      Run_ctx.printf ctx "Paper shape: ~1.56%% average overhead.\n")

(* --- Fig 16: Nginx ----------------------------------------------------------- *)

let fig16_grid =
  versus_taichi [ ("http", `Http); ("https", `Https) ] ~key:fst ~label:fst

let fig16 =
  Exp_desc.make ~name:"fig16"
    ~title:"Figure 16: Nginx requests/s under Tai Chi (10k connections)"
    ~description:"Nginx (wrk) requests per second under Tai Chi vs baseline"
    ~grid:fig16_grid
    ~run_cell:(fun ctx ~seed ~scale _cell ((_, proto), policy) ->
      let dur = scaled scale (Time_ns.sec 1) in
      with_system ~ctx ~seed policy (fun sys ->
          let sim = System.sim sys in
          let until = Sim.now sim + dur in
          cp_pressure sys ~until;
          let rng = Rng.split (System.rng sys) "nginx" in
          let r =
            match proto with
            | `Http ->
                Nginx.http (System.client sys) rng
                  ~cores:(System.net_cores sys) ~until
            | `Https ->
                Nginx.https_short (System.client sys) rng
                  ~cores:(System.net_cores sys) ~until
          in
          System.advance sys (dur + Time_ns.ms 5);
          Nginx.requests_per_sec r ~duration:dur))
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let table =
        Table.create
          ~columns:
            [
              ("protocol", Table.Left);
              ("baseline_rps", Table.Right);
              ("taichi_rps", Table.Right);
              ("overhead", Table.Right);
            ]
      in
      List.iter
        (fun name ->
          let b = Exp_desc.result results (name ^ "-base") in
          let t = Exp_desc.result results (name ^ "-taichi") in
          let shown = if name = "https" then "https_short" else name in
          Table.add_row table
            [
              shown;
              Table.cell_f b;
              Table.cell_f t;
              Printf.sprintf "%.2f%%" (overhead_pct ~baseline:b ~measured:t);
            ])
        [ "http"; "https" ];
      Run_ctx.print_table ctx table;
      Run_ctx.printf ctx "Paper shape: ~0.51%% average overhead, up to ~1%%.\n")

(* --- §8: dynamic repartitioning ---------------------------------------------- *)

(* Two measurement kinds over two layouts; the variant keeps the cell
   result honest instead of overloading a float pair. *)
type sec8_result = Peak of float * float | Cp_time of float

let sec8_boost_layout = { System.n_net = 6; n_storage = 4; n_cp = 2 }

let sec8_grid =
  [
    ( { Exp_desc.key = "peak-4cp"; label = "peak throughput, 4 CP cores" },
      (`Peak, System.default_layout) );
    ( { Exp_desc.key = "peak-2cp"; label = "peak throughput, 2 CP cores" },
      (`Peak, sec8_boost_layout) );
    ( { Exp_desc.key = "cptime-4cp"; label = "synth_cp time, 4 CP cores" },
      (`Cp, System.default_layout) );
    ( { Exp_desc.key = "cptime-2cp"; label = "synth_cp time, 2 CP cores" },
      (`Cp, sec8_boost_layout) );
  ]

let sec8 =
  Exp_desc.make ~name:"sec8"
    ~title:"Section 8: reallocating 50% of CP pCPUs to the data plane"
    ~description:
      "Reallocate 50% of CP pCPUs to the data plane via Tai Chi's dynamic \
       partitioning: peak IOPS / CPS gains with unchanged CP performance"
    ~grid:sec8_grid
    ~run_cell:(fun ctx ~seed ~scale _cell (kind, layout) ->
      match kind with
      | `Peak ->
          let dur = scaled scale (Time_ns.ms 400) in
          with_system ~ctx ~seed ~layout Policy.taichi_default (fun sys ->
              let sim = System.sim sys in
              let until = Sim.now sim + dur in
              start_bg_cp sys;
              let rng = Rng.split (System.rng sys) "sec8" in
              let crr =
                Netperf.tcp_crr (System.client sys) rng
                  ~cores:(System.net_cores sys) ~until
              in
              let fio =
                Fio.run (System.client sys) rng ~params:Fio.default_params
                  ~cores:(System.storage_cores sys) ~until
              in
              System.advance sys (dur + Time_ns.ms 5);
              Peak
                ( Rr_engine.tps crr ~duration:dur,
                  Fio.iops fio ~duration:dur ))
      | `Cp ->
          with_system ~ctx ~seed ~layout Policy.taichi_default (fun sys ->
              let rng = Rng.split (System.rng sys) "sec8cp" in
              let tasks =
                Synth_cp.make_batch ~rng ~params:Synth_cp.default_params
                  ~locks:[ Task.spinlock "sec8" ] ~affinity:[] ~count:8 ()
              in
              List.iter (fun task -> System.spawn_cp sys task) tasks;
              ignore
                (System.run_until_tasks_done sys tasks ~limit:(Time_ns.sec 20));
              Cp_time (avg_turnaround_ms tasks)))
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let peak key =
        match Exp_desc.result results key with
        | Peak (cps, iops) -> (cps, iops)
        | Cp_time _ -> (0.0, 0.0)
      in
      let cp key =
        match Exp_desc.result results key with Cp_time ms -> ms | Peak _ -> 0.0
      in
      let cps0, iops0 = peak "peak-4cp" in
      let cps1, iops1 = peak "peak-2cp" in
      let cp0 = cp "cptime-4cp" and cp1 = cp "cptime-2cp" in
      let table =
        Table.create
          ~columns:
            [
              ("metric", Table.Left);
              ("4 CP cores", Table.Right);
              ("2 CP cores", Table.Right);
              ("change", Table.Right);
            ]
      in
      let row name v0 v1 =
        Table.add_row table
          [
            name;
            Table.cell_f v0;
            Table.cell_f v1;
            Printf.sprintf "%+.1f%%" ((v1 -. v0) /. v0 *. 100.0);
          ]
      in
      row "peak CPS" cps0 cps1;
      row "peak IOPS" iops0 iops1;
      row "synth_cp avg ms (8 tasks)" cp0 cp1;
      Run_ctx.print_table ctx table;
      Run_ctx.printf ctx
        "Paper shape: +39%% peak IOPS, +43%% CPS, CP performance consistent \
         (idle DP cycles absorb the lost CP cores).\n")
