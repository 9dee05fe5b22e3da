open Taichi_engine
open Taichi_os
open Taichi_metrics
open Taichi_core
open Taichi_virt
open Taichi_controlplane
open Exp_common

(* Noisy-neighbour isolation under first-class tenants. The grid spans
   tenant count x weight ratio x aggressor profile and checks the three
   contracts the tenant abstraction makes:

   - {b Shares}: under saturation every tenant's vCPU grant time matches
     its configured weight within [share_tol] — the two-stage weighted
     scheduler's deficit round-robin converges.
   - {b Work conservation}: an idle tenant's capacity is redistributed to
     the backlogged ones instead of being reserved.
   - {b Isolation}: a CP storm or DP burst from the aggressor tenant
     moves every victim's DP p99 by no more than that victim's
     contracted bound, and all governor activity (ladder transitions,
     shed, deferrals, placement denials) lands on the aggressor's lane
     only. *)

let share_tol = 0.05

(* Bounded-ladder oracle, per lane (same budget as exp_overload). *)
let max_transitions = 16

type scenario = Sat | Idle | Cpstorm | Dpburst

let is_aggressor_scenario = function
  | Cpstorm | Dpburst -> true
  | Sat | Idle -> false

type tenant_row = {
  tid : int;
  tname : string;
  weight : int;
  granted_ms : float;
  share : float;  (** fraction of the cell's total grant time *)
  wshare : float;  (** weight / total weight *)
  packets : int;
  p99_us : float;
  bound_us : float;
  level : string;  (** final lane rung; "-" without a governor *)
  lane_trans : int;
  lane_esc : int;
  lane_shed : int;
  lane_deferred : int;
  lane_denied : int;
}

type outcome = {
  key : string;
  scenario : scenario;
  aggressor : int option;
  rows : tenant_row list;
  total_granted_ms : float;
  vms_done : int;
  vms_total : int;
  fingerprint : string;
}

(* --- workloads ----------------------------------------------------------- *)

(* Per-tenant CP saturation: long synthetic tasks pinned to the tenant's
   own vCPUs (two per vCPU, each sized to the whole window), so every
   tenant stays backlogged in the scheduler's tenant stage for the full
   measurement and grant time — not task arrival — is the contended
   resource. *)
let saturate sys ~tenant ~kcpus ~dur =
  let rng = Rng.split (System.rng sys) (Printf.sprintf "mt-sat-%d" tenant) in
  let params =
    { Synth_cp.default_params with Synth_cp.total_work = dur; phases = 4 }
  in
  List.iteri
    (fun i _ ->
      List.iter
        (fun j ->
          let task =
            Synth_cp.make ~tenant ~rng ~params ~locks:[] ~affinity:kcpus
              ~name:(Printf.sprintf "mt%d-sat-%d-%d" tenant i j)
              ()
          in
          System.spawn_cp ~tenant sys task)
        [ 0; 1 ])
    kcpus

(* A light steady CP population — the victim's normal day. *)
let light_cp sys ~tenant ~dur =
  let rng = Rng.split (System.rng sys) (Printf.sprintf "mt-light-%d" tenant) in
  let params =
    { Synth_cp.default_params with Synth_cp.total_work = dur / 8; phases = 3 }
  in
  let tasks =
    Synth_cp.make_batch ~tenant ~rng ~params ~locks:[] ~affinity:[] ~count:4 ()
  in
  List.iter (fun task -> System.spawn_cp ~tenant sys task) tasks

(* --- one cell ------------------------------------------------------------ *)

let measure ctx ~seed ~scale ~key ~specs ~scenario =
  let config =
    (* Same regime as exp_overload: without the hardware probe CP
       placement pressure actually reaches the DP tail, so the aggressor
       has something to pollute. *)
    let c = Config.no_hw_probe Config.default in
    let c = Config.with_tenants c specs in
    if is_aggressor_scenario scenario then Config.with_overload c
    else
      (* The share cells oversubscribe vCPUs (8 per tenant): a tenant
         whose every vCPU is placed drops out of the scheduler's tenant
         stage and its virtual clock is forgiven on re-entry, so with
         only enough vCPUs to cover its share the weight advantage
         erodes. Oversubscription — the paper's own deployment model —
         keeps every backlogged tenant continuously eligible. *)
      { c with Config.n_vcpus = 8 * List.length specs }
  in
  with_system ~ctx ~seed (Policy.Taichi config) (fun sys ->
      let sim = System.sim sys in
      let counters = Taichi_hw.Machine.counters (System.machine sys) in
      let table = System.tenants sys in
      let n = Tenant.count table in
      let aggressor =
        if is_aggressor_scenario scenario then Some (n - 1) else None
      in
      let tc = Option.get (System.taichi sys) in
      let sched = Taichi.scheduler tc in
      let kcpus_of tid =
        List.filter_map
          (fun v -> if v.Vcpu.tenant = tid then Some v.Vcpu.kcpu else None)
          (Taichi.vcpus tc)
      in
      let dur = max (Time_ns.ms 100) (scaled scale (Time_ns.ms 120)) in
      let until = Sim.now sim + dur in
      (* Baseline DP traffic on every core. The saturation cells run it
         hotter so the residual core capacity — the resource the tenant
         stage arbitrates — is smaller than any tenant's vCPU width and
         weights, not vCPU counts, decide the split. *)
      (match scenario with
      | Sat | Idle -> start_bg_dp sys ~target:0.5 ~storage_target:0.25 ~until
      | Cpstorm | Dpburst ->
          start_bg_dp sys ~target:0.25 ~storage_target:0.12 ~until);
      let recorder = Recorder.create "vm.startup" in
      let storm_tasks =
        match scenario with
        | Sat ->
            for tid = 0 to n - 1 do
              saturate sys ~tenant:tid ~kcpus:(kcpus_of tid) ~dur
            done;
            []
        | Idle ->
            (* The last tenant submits nothing: its share must flow to
               the backlogged tenants, not sit reserved. *)
            for tid = 0 to n - 2 do
              saturate sys ~tenant:tid ~kcpus:(kcpus_of tid) ~dur
            done;
            []
        | Cpstorm ->
            start_bg_cp sys;
            for tid = 0 to n - 2 do
              light_cp sys ~tenant:tid ~dur
            done;
            (* The fig17 VM-startup storm, owned by one tenant: the whole
               burst is admitted through that tenant's ladder as
               Standard work. *)
            let tenant = n - 1 in
            let tasks =
              vm_storm ~tenant sys
                ~rng:(Rng.split (System.rng sys) "mt-storm")
                ~density:4.0 ~locks:"mt-driver" ~name:"mt-vm" ~recorder
            in
            spawn_staggered ~tenant sys ~spread:(dur / 3) tasks;
            tasks
        | Dpburst ->
            start_bg_cp sys;
            for tid = 0 to n - 1 do
              light_cp sys ~tenant:tid ~dur
            done;
            (* A DP burst confined to the aggressor's own service cores:
               near-saturating bursty traffic on top of the baseline. *)
            start_dp_load sys
              ~rng:(Rng.split (System.rng sys) "mt-burst")
              ~cores:(tenant_dp_cores sys ~tenant:(n - 1))
              ~net:0.9 ~storage:0.6 ~until;
            []
      in
      System.advance sys dur;
      if storm_tasks <> [] then begin
        (* Post-storm: let deferred admissions drain and the aggressor
           ladder re-arm before the books close. *)
        ignore
          (System.run_until_tasks_done sys storm_tasks ~limit:(Time_ns.sec 2));
        System.advance sys (Time_ns.ms 20)
      end;
      let ov = System.overload sys in
      let granted tid =
        Vcpu_sched.granted_ns sched ~tenant:tid
      in
      let total_granted = List.fold_left ( + ) 0 (List.map granted (Tenant.ids table)) in
      let total_weight = Tenant.total_weight table in
      let get = Counters.get counters in
      let rows =
        List.map
          (fun tid ->
            let tenant = Tenant.get table tid in
            let hist = System.dp_latency_hist_of sys ~tenant:tid in
            let packets = Histogram.count hist in
            let p99_us = p99_us hist in
            let g = granted tid in
            {
              tid;
              tname = tenant.Tenant.name;
              weight = tenant.Tenant.weight;
              granted_ms = float_of_int g /. 1e6;
              share =
                (if total_granted = 0 then 0.0
                 else float_of_int g /. float_of_int total_granted);
              wshare = float_of_int tenant.Tenant.weight /. float_of_int total_weight;
              packets;
              p99_us;
              bound_us = float_of_int tenant.Tenant.dp_p99_bound /. 1e3;
              level =
                (match ov with
                | Some ov -> Overload.level_label (Overload.level_of ov ~tenant:tid)
                | None -> "-");
              lane_trans = get (Tenant.counter tid "overload.transitions");
              lane_esc = get (Tenant.counter tid "overload.escalations");
              lane_shed =
                List.fold_left
                  (fun acc cls ->
                    acc
                    + get
                        (Tenant.counter tid
                           ("overload.shed." ^ Tenant.cls_name cls)))
                  0 Tenant.all_classes;
              lane_deferred =
                List.fold_left
                  (fun acc cls ->
                    acc
                    + get
                        (Tenant.counter tid
                           ("overload.deferred." ^ Tenant.cls_name cls)))
                  0 Tenant.all_classes;
              lane_denied = get (Tenant.counter tid "overload.place_denied");
            })
          (Tenant.ids table)
      in
      {
        key;
        scenario;
        aggressor;
        rows;
        total_granted_ms = float_of_int total_granted /. 1e6;
        vms_done = List.length (List.filter Task.is_finished storm_tasks);
        vms_total = List.length storm_tasks;
        fingerprint =
          fingerprint [ ("", sys) ]
            (List.map (fun r -> Printf.sprintf "p99.%d=%.3f" r.tid r.p99_us) rows);
      })

(* --- oracles ------------------------------------------------------------- *)

let check_oracles cells =
  let fail fmt = Printf.ksprintf failwith fmt in
  List.iter
    (fun c ->
      match c.scenario with
      | Sat ->
          (* Weighted-sharing: every backlogged tenant's grant share
             matches its weight share within the tolerance. *)
          if c.total_granted_ms <= 0.0 then
            fail "exp_multitenant[%s]: no vCPU grant time under saturation"
              c.key;
          List.iter
            (fun r ->
              if Float.abs (r.share -. r.wshare) > share_tol then
                fail
                  "exp_multitenant[%s]: tenant %s (weight %d) got share %.3f, \
                   expected %.3f +/- %.2f — weighted scheduling did not \
                   converge"
                  c.key r.tname r.weight r.share r.wshare share_tol)
            c.rows
      | Idle ->
          (* Work conservation: the idle tenant's capacity flows to the
             backlogged ones — their combined share approaches 1 instead
             of stopping at their combined weight share. *)
          let idle = List.nth c.rows (List.length c.rows - 1) in
          let active_share =
            List.fold_left
              (fun acc r -> if r.tid = idle.tid then acc else acc +. r.share)
              0.0 c.rows
          in
          if c.total_granted_ms <= 0.0 then
            fail "exp_multitenant[%s]: no vCPU grant time with a tenant idle"
              c.key;
          if active_share < 0.9 then
            fail
              "exp_multitenant[%s]: backlogged tenants got only %.3f of the \
               grant time with tenant %s idle — capacity was reserved, not \
               redistributed"
              c.key active_share idle.tname
      | Cpstorm | Dpburst ->
          let agg = Option.get c.aggressor in
          List.iter
            (fun r ->
              if r.tid <> agg then begin
                (* Isolation: every victim's DP p99 stays inside its
                   contracted bound, on real traffic. *)
                if r.packets = 0 then
                  fail
                    "exp_multitenant[%s]: victim %s observed no DP traffic — \
                     the isolation oracle is vacuous"
                    c.key r.tname;
                if r.p99_us > r.bound_us then
                  fail
                    "exp_multitenant[%s]: aggressor moved victim %s's DP p99 \
                     to %.1fus, past its %.1fus contract"
                    c.key r.tname r.p99_us r.bound_us;
                (* Attribution: no governor activity on a victim lane. *)
                if
                  r.lane_trans > 0 || r.lane_shed > 0 || r.lane_deferred > 0
                  || r.lane_denied > 0
                then
                  fail
                    "exp_multitenant[%s]: governor activity on victim %s's \
                     lane (trans=%d shed=%d deferred=%d denied=%d) — brownout \
                     was not attributed to the aggressor only"
                    c.key r.tname r.lane_trans r.lane_shed r.lane_deferred
                    r.lane_denied
              end
              else begin
                if c.scenario = Cpstorm && r.lane_esc = 0 then
                  fail
                    "exp_multitenant[%s]: the CP storm never escalated the \
                     aggressor's ladder — the cell is not stressful enough \
                     to test isolation"
                    c.key;
                if r.lane_trans > max_transitions then
                  fail
                    "exp_multitenant[%s]: %d transitions on the aggressor \
                     lane (max %d) — flapping"
                    c.key r.lane_trans max_transitions
              end)
            c.rows)
    cells;
  (* Cross-cell work conservation: with the same weights and window, the
     backlogged tenant must end up with strictly more grant time when its
     neighbour idles than when the neighbour competes. *)
  let outcome key = List.find_opt (fun c -> c.key = key) cells in
  (match (outcome "sat-t2-skew", outcome "idle-t2-skew") with
  | Some sat, Some idle ->
      let g cell tid = (List.nth cell.rows tid).granted_ms in
      if g idle 0 <= g sat 0 then
        failwith
          (Printf.sprintf
             "exp_multitenant: tenant alpha gained nothing from its \
              neighbour idling (%.2fms idle vs %.2fms contended) — not work \
              conserving"
             (g idle 0) (g sat 0))
  | _ -> ())

(* --- the grid ------------------------------------------------------------ *)

(* The p99 contract the isolation cells are judged against. Looser than
   the governor's own 150 us escalation guardrail: the victims run their
   own CP population on top of the baseline traffic, and the contract
   bounds what the *aggressor* may add — not the victim's self-inflicted
   tail. *)
let contract = Time_ns.us 200

let t2_even =
  [
    Tenant.spec ~dp_p99_bound:contract "alpha";
    Tenant.spec ~dp_p99_bound:contract "bravo";
  ]

let t2_skew =
  [
    Tenant.spec ~weight:3 ~dp_p99_bound:contract "alpha";
    Tenant.spec ~dp_p99_bound:contract "bravo";
  ]

let t3_skew =
  [
    Tenant.spec ~weight:4 ~dp_p99_bound:contract "alpha";
    Tenant.spec ~weight:2 ~dp_p99_bound:contract "bravo";
    Tenant.spec ~dp_p99_bound:contract "charlie";
  ]

let grid =
  let cell key label v = ({ Exp_desc.key; label }, v) in
  [
    cell "sat-t2-even" "2 tenants 1:1, all saturating" (`Point (Sat, t2_even));
    cell "sat-t2-skew" "2 tenants 3:1, all saturating" (`Point (Sat, t2_skew));
    cell "sat-t3-skew" "3 tenants 4:2:1, all saturating"
      (`Point (Sat, t3_skew));
    cell "idle-t2-skew" "2 tenants 3:1, bravo idle" (`Point (Idle, t2_skew));
    cell "storm-t2-even" "2 tenants 1:1, bravo runs a CP storm"
      (`Point (Cpstorm, t2_even));
    cell "storm-t2-skew" "2 tenants 3:1, bravo runs a CP storm"
      (`Point (Cpstorm, t2_skew));
    cell "storm-t3-skew" "3 tenants 4:2:1, charlie runs a CP storm"
      (`Point (Cpstorm, t3_skew));
    cell "burst-t2-even" "2 tenants 1:1, bravo bursts its data plane"
      (`Point (Dpburst, t2_even));
    cell "burst-t2-skew" "2 tenants 3:1, bravo bursts its data plane"
      (`Point (Dpburst, t2_skew));
    cell "repeat-storm-t2-skew"
      "determinism repeat: 2 tenants 3:1, CP storm" `Repeat;
  ]

(* The CI matrix pins one aggressor setting per job; the CLI turns
   --aggressor into a cell filter over these keys (the repeat cell counts
   as an aggressor cell). *)
let aggressor_filter aggressor cell =
  let prefixes =
    if aggressor then [ "storm-"; "burst-"; "repeat-storm" ]
    else [ "sat-"; "idle-" ]
  in
  List.exists
    (fun prefix -> String.starts_with ~prefix cell.Exp_desc.key)
    prefixes

let multitenant =
  Exp_desc.make ~name:"multitenant"
    ~title:
      "MULTITENANT: tenant count x weight ratio x aggressor profile \
       (weighted-share, work-conservation and noisy-neighbour isolation \
       oracles)"
    ~description:
      "Two-stage weighted scheduler under multi-tenant load: weighted \
       shares converge under saturation, idle capacity is redistributed, \
       and a CP storm / DP burst from one tenant stays inside every \
       victim's p99 contract with brownout attributed to the aggressor's \
       ladder only"
    ~grid
    ~run_cell:(fun ctx ~seed ~scale cell point ->
      match point with
      | `Point (scenario, specs) ->
          Run_ctx.printf ctx "\n-- %s: %s (seed %d)\n" cell.Exp_desc.key
            cell.Exp_desc.label seed;
          measure ctx ~seed ~scale ~key:cell.Exp_desc.key ~specs ~scenario
      | `Repeat ->
          Run_ctx.printf ctx
            "\n-- determinism check: repeating storm-t2-skew (seed %d)\n" seed;
          measure ctx ~seed ~scale ~key:"repeat-storm-t2-skew" ~specs:t2_skew
            ~scenario:Cpstorm)
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let cells = results_except "repeat-storm-t2-skew" results in
      let table =
        Table.create
          ~columns:
            [
              ("cell", Table.Left);
              ("tenant", Table.Left);
              ("w", Table.Right);
              ("granted_ms", Table.Right);
              ("share", Table.Right);
              ("target", Table.Right);
              ("dp_p99_us", Table.Right);
              ("bound_us", Table.Right);
              ("lane", Table.Left);
              ("trans", Table.Right);
              ("shed", Table.Right);
              ("deferred", Table.Right);
            ]
      in
      List.iter
        (fun c ->
          List.iter
            (fun r ->
              let marker =
                if c.aggressor = Some r.tid then r.tname ^ "*" else r.tname
              in
              Table.add_row table
                [
                  c.key;
                  marker;
                  string_of_int r.weight;
                  Printf.sprintf "%.2f" r.granted_ms;
                  Printf.sprintf "%.3f" r.share;
                  Printf.sprintf "%.3f" r.wshare;
                  Printf.sprintf "%.1f" r.p99_us;
                  Printf.sprintf "%.1f" r.bound_us;
                  r.level;
                  string_of_int r.lane_trans;
                  string_of_int r.lane_shed;
                  string_of_int r.lane_deferred;
                ])
            c.rows)
        cells;
      Run_ctx.print_table ctx table;
      check_oracles cells;
      check_repeat ~experiment:"exp_multitenant" ~base:"storm-t2-skew"
        ~repeat:"repeat-storm-t2-skew"
        (fun o -> o.fingerprint)
        results;
      Run_ctx.printf ctx
        "\nShares track weights within %.0f%%, idle capacity is \
         redistributed, and every aggressor cell (*) kept its victims \
         inside their p99 contracts with brownout on the aggressor's lane \
         only.\n"
        (share_tol *. 100.0))
