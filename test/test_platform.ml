(* Integration tests across the platform layer: policies, full systems,
   and end-to-end paper phenomena at miniature scale. *)

open Taichi_engine
open Taichi_os
open Taichi_core
open Taichi_metrics
open Taichi_workloads
open Taichi_controlplane
open Taichi_platform

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Policy -------------------------------------------------------------------- *)

let test_policy_names () =
  Alcotest.(check string) "baseline" "baseline" (Policy.name Policy.Static_partition);
  Alcotest.(check string) "taichi" "taichi" (Policy.name Policy.taichi_default);
  Alcotest.(check string) "ablation" "taichi-no-hwprobe"
    (Policy.name Policy.taichi_no_hw_probe);
  Alcotest.(check string) "type2" "type2" (Policy.name Policy.Type2)

let test_policy_costs () =
  checki "type2 loses cores" 2 (Policy.dp_cores_lost Policy.Type2);
  checki "taichi loses none" 0 (Policy.dp_cores_lost Policy.taichi_default);
  checkb "vdp taxes dp" true (Policy.dp_speed_tax (Policy.Taichi_vdp Config.default) > 0.0);
  checkb "type2 rpc slower" true
    (Policy.dpcp_roundtrip Policy.Type2
    > Policy.dpcp_roundtrip Policy.taichi_default)

(* --- System assembly --------------------------------------------------------------- *)

let test_system_layout () =
  let sys = System.create ~seed:1 Policy.Static_partition in
  checki "net cores" 5 (List.length (System.net_cores sys));
  checki "storage cores" 3 (List.length (System.storage_cores sys));
  checki "cp cores" 4 (List.length (System.cp_cores sys));
  checki "services" 8 (List.length (System.services sys));
  checkb "no taichi under baseline" true (System.taichi sys = None)

let test_type2_loses_dp_cores () =
  let sys = System.create ~seed:1 Policy.Type2 in
  checki "net cores" 4 (List.length (System.net_cores sys));
  checki "storage cores" 2 (List.length (System.storage_cores sys))

let test_cp_affinity_per_policy () =
  let base = System.create ~seed:1 Policy.Static_partition in
  checki "baseline: cp cores only" 4 (List.length (System.cp_affinity base));
  let naive = System.create ~seed:1 Policy.Naive_coschedule in
  checki "naive: dp + cp cores" 12 (List.length (System.cp_affinity naive));
  let tai = System.create ~seed:1 Policy.taichi_default in
  System.warmup tai;
  checki "taichi: cp + vcpus" 12 (List.length (System.cp_affinity tai))

(* The fixed cost of one simulated NIC: a warmed Tai Chi system, then
   the same system after 20 ms of data-plane traffic and vCPU-placing
   control-plane churn, which sweeps every engine wheel bucket and grows
   the event pool and the packet arena to their working sizes; then a
   warmed governed system, which adds a p99 sketch per governor lane.
   The caps sit below the 60,932, 65,859 and 71,168 words these reached
   while each DP ring preallocated 4,096 slots and each sketch kept a
   dense 1,024-bucket row per slice (DESIGN §16), and the loaded one far
   below the 133 K words a buffer per wheel bucket reached (§12). *)
let test_system_footprint () =
  let sys = System.create ~seed:1 Policy.taichi_default in
  System.warmup sys;
  Test_engine.check_footprint "warmed taichi system" ~cap:(48 * 1024) sys;
  let until = Sim.now (System.sim sys) + Time_ns.ms 20 in
  Exp_common.start_bg_dp sys ~target:0.3 ~until;
  Exp_common.start_cp_churn sys ~period:(Time_ns.ms 1) ~work:(Time_ns.ms 4)
    ~until;
  System.advance sys (Time_ns.ms 20);
  Test_engine.check_footprint "taichi system after 20 ms of load"
    ~cap:(56 * 1024) sys;
  let gov =
    System.create ~seed:1 (Policy.Taichi (Config.with_overload Config.default))
  in
  System.warmup gov;
  Test_engine.check_footprint "warmed governed taichi system" ~cap:(48 * 1024)
    gov

(* Minor words per fired engine event over one real cell at seed 42,
   [--scale 0.05]. The cell runs in this domain, since [Gc.minor_words]
   counts only the calling domain's allocation. *)
let words_per_event id key =
  let (Exp_desc.T d) = Option.get (Experiments.find id) in
  let cell = List.find (fun c -> c.Exp_desc.key = key) d.cells in
  let ctx = Run_ctx.for_cell (Run_ctx.create ~experiment:id ()) in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (d.run_cell ctx ~seed:42 ~scale:0.05 cell));
  let words = Gc.minor_words () -. w0 in
  let _, fired = Run_ctx.engine_events ctx in
  words /. float_of_int fired

let test_words_per_event () =
  List.iter
    (fun (id, key) ->
      let w = words_per_event id key in
      if w > 45.0 then
        Alcotest.failf "%s %s allocates %.1f minor words per event (cap 45)" id
          key w)
    [ ("fig17", "d2-taichi"); ("multitenant", "burst-t2-skew") ]

let test_warmup_sets_epoch () =
  let sys = System.create ~seed:1 Policy.taichi_default in
  System.warmup sys;
  checkb "epoch set" true (System.epoch sys > 0);
  checkb "taichi ready" true
    (match System.taichi sys with Some tc -> Taichi.ready tc | None -> false)

(* --- end-to-end phenomena ------------------------------------------------------------ *)

(* The §3.2 spike: naive co-scheduling exposes data-plane packets to
   ms-scale non-preemptible routines; Tai Chi does not. *)
let spike_run policy =
  let sys = System.create ~seed:9 policy in
  System.warmup sys;
  let lock = Task.spinlock "drv" in
  let cp =
    Task.create ~name:"np-cp"
      ~step:
        (Program.to_step
           [
             Program.Forever
               ([ Program.compute (Time_ns.us 300) ]
               @ Program.critical_section lock
                   [ Program.kernel_routine (Time_ns.ms 3) ]
               @ [ Program.sleep (Time_ns.us 100) ]);
           ])
      ()
  in
  (match policy with
  | Policy.Naive_coschedule ->
      cp.Task.affinity <- [ List.hd (System.net_cores sys) ]
  | _ -> ());
  System.spawn_cp sys cp;
  let recorder = Recorder.create "rtt" in
  let rng = Rng.split (System.rng sys) "probe" in
  Ping.run (System.client sys) rng
    ~params:{ Ping.default_params with interval = Time_ns.us 300; count = 300 }
    ~core:(List.hd (System.net_cores sys))
    ~recorder;
  System.advance sys (Time_ns.ms 120);
  Recorder.max_value recorder

let test_naive_spikes_taichi_does_not () =
  let naive_max = spike_run Policy.Naive_coschedule in
  let taichi_max = spike_run Policy.taichi_default in
  checkb "naive ms-scale spike" true (naive_max > Time_ns.ms 1);
  checkb "taichi stays micro-scale" true (taichi_max < Time_ns.us 100)

(* Miniature Fig 11: Tai Chi speeds up burst CP work under an idle-ish
   data plane. *)
let mini_fig11 policy =
  let sys = System.create ~seed:10 policy in
  System.warmup sys;
  let until = Sim.now (System.sim sys) + Time_ns.sec 10 in
  Exp_common.start_bg_dp sys ~target:0.10 ~until;
  Exp_common.start_cp_ecosystem sys ();
  let rng = Rng.split (System.rng sys) "mini" in
  let tasks =
    Synth_cp.make_batch ~rng
      ~params:{ Synth_cp.default_params with total_work = Time_ns.ms 20 }
      ~locks:[ Task.spinlock "l" ] ~affinity:[] ~count:16 ()
  in
  List.iter (fun t -> System.spawn_cp sys t) tasks;
  checkb "finished" true
    (System.run_until_tasks_done sys tasks ~limit:(Time_ns.sec 10));
  Exp_common.avg_turnaround_ms tasks

let test_taichi_speeds_up_cp () =
  let base = mini_fig11 Policy.Static_partition in
  let taichi = mini_fig11 Policy.taichi_default in
  checkb "meaningful speedup" true (base /. taichi > 1.5)

(* Miniature Fig 12/13 shape: type-2 loses substantially more data-plane
   throughput than Tai Chi. *)
let mini_crr policy =
  let sys = System.create ~seed:11 policy in
  System.warmup sys;
  let d = Time_ns.ms 150 in
  let until = Sim.now (System.sim sys) + d in
  let rng = Rng.split (System.rng sys) "crr" in
  let r = Netperf.tcp_crr (System.client sys) rng ~cores:(System.net_cores sys) ~until in
  System.advance sys (d + Time_ns.ms 10);
  Rr_engine.tps r ~duration:d

let test_fig12_shape () =
  let base = mini_crr Policy.Static_partition in
  let taichi = mini_crr Policy.taichi_default in
  let vdp = mini_crr (Policy.Taichi_vdp Config.default) in
  let type2 = mini_crr Policy.Type2 in
  checkb "taichi within 2% of baseline" true (taichi > base *. 0.98);
  checkb "vdp noticeably slower" true (vdp < base *. 0.97);
  checkb "type2 much slower" true (type2 < base *. 0.85);
  checkb "ordering" true (type2 < vdp && vdp < taichi)

(* Table 5 shape at miniature scale: removing the hardware probe inflates
   tail RTT; full Tai Chi does not. *)
let mini_ping policy =
  let sys = System.create ~seed:12 policy in
  System.warmup sys;
  let until = Sim.now (System.sim sys) + Time_ns.ms 600 in
  (* Offer well above the 4 dedicated CP cores so vCPUs occupy data-plane
     cores (including the pinged one) most of the time. *)
  Exp_common.start_cp_churn sys ~period:(Time_ns.ms 1) ~work:(Time_ns.ms 8) ~until;
  let recorder = Recorder.create "rtt" in
  let rng = Rng.split (System.rng sys) "ping" in
  Ping.run (System.client sys) rng
    ~params:{ Ping.default_params with interval = Time_ns.ms 1; count = 550 }
    ~core:(List.hd (System.net_cores sys))
    ~recorder;
  System.advance sys (Time_ns.ms 600);
  Ping.summarize recorder

let test_hw_probe_hides_latency () =
  let base = mini_ping Policy.Static_partition in
  let taichi = mini_ping Policy.taichi_default in
  let no_probe = mini_ping Policy.taichi_no_hw_probe in
  checkb "taichi max near baseline" true
    (taichi.Ping.max_us < base.Ping.max_us *. 1.3);
  checkb "no-probe max inflated" true
    (no_probe.Ping.max_us > base.Ping.max_us *. 1.5)

(* Accounting sanity on a busy system: all charged time fits in capacity. *)
let test_accounting_conservation () =
  let sys = System.create ~seed:13 Policy.taichi_default in
  System.warmup sys;
  let d = Time_ns.ms 300 in
  let until = Sim.now (System.sim sys) + d in
  Exp_common.start_bg_dp sys ~target:0.3 ~until;
  Exp_common.start_cp_churn sys ~period:(Time_ns.ms 2) ~work:(Time_ns.ms 3) ~until;
  System.advance sys d;
  let acct = Taichi_hw.Machine.accounting (System.machine sys) in
  let elapsed = Sim.now (System.sim sys) in
  List.iter
    (fun core ->
      let busy = Taichi_hw.Accounting.busy acct ~core in
      checkb
        (Printf.sprintf "core %d charged <= elapsed" core)
        true
        (busy <= elapsed))
    (System.dp_cores sys @ System.cp_cores sys)

(* --- narrowing flags ------------------------------------------------------ *)

let narrowed_desc (n : Experiments.narrowing) =
  Option.get (Experiments.find n.experiment)

let kept chosen desc =
  List.filter (Experiments.filter_for chosen desc) (Exp_desc.cells desc)

(* Every value a flag accepts keeps a cell of its experiment and runs
   there and under [all]; elsewhere the flag is refused, and it never
   narrows another experiment. *)
let test_narrowing_values () =
  let fig12 = Option.get (Experiments.find "fig12") in
  List.iter
    (fun (n : Experiments.narrowing) ->
      List.iter
        (fun (value, keep) ->
          let chosen = [ (n, keep) ] in
          let what = Printf.sprintf "--%s %s" n.flag value in
          checkb (what ^ " keeps a cell") true
            (kept chosen (narrowed_desc n) <> []);
          checkb (what ^ " runs") true
            (Experiments.refusal chosen n.experiment = None);
          checkb (what ^ " runs under all") true
            (Experiments.refusal chosen "all" = None);
          checkb (what ^ " is refused for fig12") true
            (Experiments.refusal chosen "fig12" <> None);
          checki (what ^ " leaves fig12's cells alone")
            (Exp_desc.cell_count fig12)
            (List.length (kept chosen fig12)))
        n.values)
    Experiments.narrowings

(* The fleet takes two flags at once: a pair is refused exactly when it
   leaves no cell (16 NICs with failover off, for one). *)
let test_fleet_narrowing_pairs () =
  let flag name =
    List.find
      (fun (n : Experiments.narrowing) -> n.flag = name)
      Experiments.narrowings
  in
  let nics = flag "nics" and failover = flag "failover" in
  List.iter
    (fun (nv, nk) ->
      List.iter
        (fun (fv, fk) ->
          let chosen = [ (nics, nk); (failover, fk) ] in
          checkb
            (Printf.sprintf "--nics %s --failover %s: refused iff empty" nv fv)
            (kept chosen (narrowed_desc nics) = [])
            (Experiments.refusal chosen "fleet" <> None))
        failover.values)
    nics.values;
  checkb "--nics 16 --failover off is refused" true
    (Experiments.refusal
       [
         (nics, List.assoc "16" nics.values);
         (failover, List.assoc "off" failover.values);
       ]
       "fleet"
    <> None)

let suite =
  [
    ("policy names", `Quick, test_policy_names);
    ("policy costs", `Quick, test_policy_costs);
    ("system layout", `Quick, test_system_layout);
    ("type2 loses dp cores", `Quick, test_type2_loses_dp_cores);
    ("cp affinity per policy", `Quick, test_cp_affinity_per_policy);
    ("warmup sets epoch", `Quick, test_warmup_sets_epoch);
    ("system footprint", `Quick, test_system_footprint);
    ("minor words per event", `Quick, test_words_per_event);
    ("naive spikes, taichi does not", `Slow, test_naive_spikes_taichi_does_not);
    ("taichi speeds up cp", `Slow, test_taichi_speeds_up_cp);
    ("fig12 ordering shape", `Slow, test_fig12_shape);
    ("hw probe hides latency", `Slow, test_hw_probe_hides_latency);
    ("accounting conservation", `Slow, test_accounting_conservation);
    ("narrowing values keep a cell", `Quick, test_narrowing_values);
    ("fleet narrowing pairs", `Quick, test_fleet_narrowing_pairs);
  ]
