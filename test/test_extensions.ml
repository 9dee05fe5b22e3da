(* Tests for the later-added components: softirqs, the §8 auditing
   feature, the extra comparison policies, and a randomized kernel
   stress/invariant check. *)

open Taichi_engine
open Taichi_hw
open Taichi_os
open Taichi_core
open Taichi_platform

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Softirq ----------------------------------------------------------------- *)

let softirq_env () =
  let sim = Sim.create () in
  let machine = Machine.create sim in
  (sim, machine, Softirq.create machine)

let test_softirq_deferred_dispatch () =
  let sim, _, sq = softirq_env () in
  let ran_at = ref (-1) in
  Softirq.register sq ~cpu:0 ~vector:7 (fun () -> ran_at := Sim.now sim);
  Softirq.raise_softirq sq ~cpu:0 ~vector:7;
  checkb "pending before dispatch" true (Softirq.pending sq ~cpu:0 ~vector:7);
  Sim.run sim;
  checki "ran after dispatch cost" 200 !ran_at;
  checki "handled" 1 (Softirq.handled_count sq)

let test_softirq_coalescing () =
  let sim, _, sq = softirq_env () in
  let runs = ref 0 in
  Softirq.register sq ~cpu:0 ~vector:7 (fun () -> incr runs);
  Softirq.raise_softirq sq ~cpu:0 ~vector:7;
  Softirq.raise_softirq sq ~cpu:0 ~vector:7;
  Softirq.raise_softirq sq ~cpu:0 ~vector:7;
  Sim.run sim;
  checki "coalesced to one run" 1 !runs;
  checki "coalesced count" 2 (Softirq.coalesced_count sq);
  checki "raised count" 3 (Softirq.raised_count sq)

let test_softirq_per_cpu_isolation () =
  let sim, _, sq = softirq_env () in
  let a = ref 0 and b = ref 0 in
  Softirq.register sq ~cpu:0 ~vector:7 (fun () -> incr a);
  Softirq.register sq ~cpu:1 ~vector:7 (fun () -> incr b);
  Softirq.raise_softirq sq ~cpu:1 ~vector:7;
  Sim.run sim;
  checki "cpu0 untouched" 0 !a;
  checki "cpu1 ran" 1 !b;
  List.iter
    (fun (cpu, vector) ->
      match Softirq.raise_softirq sq ~cpu ~vector with
      | () -> Alcotest.failf "cpu %d vector %d accepted" cpu vector
      | exception Invalid_argument _ -> ())
    [ (0, 64); (0, -1); (-1, 7) ];
  checki "refused raises not counted" 1 (Softirq.raised_count sq)

(* On an untraced machine a coalesced raise is a counter bump and an
   array probe: no key tuple, no trace-format closures. *)
let test_softirq_coalesced_raise_no_alloc () =
  let _, _, sq = softirq_env () in
  Softirq.raise_softirq sq ~cpu:0 ~vector:7;
  Test_engine.check_alloc_free "coalesced Softirq.raise_softirq"
    (Test_engine.minor_words_per_op (fun _ ->
         Softirq.raise_softirq sq ~cpu:0 ~vector:7));
  checkb "every raise coalesced" true (Softirq.coalesced_count sq >= 200_000)

let test_taichi_uses_softirq () =
  let sys = System.create ~seed:3 Policy.taichi_default in
  System.warmup sys;
  let tc = match System.taichi sys with Some tc -> tc | None -> assert false in
  let t =
    Task.create ~name:"burn"
      ~step:(Program.to_step [ Program.compute (Time_ns.ms 10) ])
      ()
  in
  t.Task.affinity <-
    List.map (fun v -> v.Taichi_virt.Vcpu.kcpu) (Taichi.vcpus tc);
  System.spawn_cp sys t;
  System.advance sys (Time_ns.ms 30);
  checkb "placements went through the softirq" true
    (Softirq.handled_count (Taichi.softirq tc) >= 1)

(* --- Audit (§8) ----------------------------------------------------------------- *)

let test_audit_reports_telemetry () =
  let sys = System.create ~seed:5 Policy.taichi_default in
  System.warmup sys;
  let tc = match System.taichi sys with Some tc -> tc | None -> assert false in
  let auditor = Audit.create tc in
  (* A syscall-heavy task bound normally (CP cores + vCPUs). *)
  let body =
    [
      Program.compute (Time_ns.us 200);
      Program.kernel_routine ~preemptible:true (Time_ns.us 100);
      Program.sleep (Time_ns.us 50);
    ]
  in
  let t =
    Task.create ~name:"suspect"
      ~step:(Program.to_step [ Program.Forever body ])
      ()
  in
  System.spawn_cp sys t;
  System.advance sys (Time_ns.ms 5);
  let report = ref None in
  Audit.start auditor t ~duration:(Time_ns.ms 20) ~on_report:(fun r ->
      report := Some r);
  checkb "auditing" true (Audit.auditing auditor);
  System.advance sys (Time_ns.ms 30);
  (match !report with
  | None -> Alcotest.fail "no report delivered"
  | Some r ->
      checkb "window covered" true (r.Audit.audited_for >= Time_ns.ms 20);
      checkb "guest cpu time observed" true (r.Audit.guest_cpu_time > 0);
      checkb "kernel entries observed" true (r.Audit.kernel_entries > 0));
  checkb "audit finished" false (Audit.auditing auditor);
  checki "completed count" 1 (Audit.audits_completed auditor);
  (* The task keeps running transparently afterwards. *)
  let before = t.Task.cpu_time in
  System.advance sys (Time_ns.ms 5);
  checkb "task unharmed" true (t.Task.cpu_time > before)

let test_audit_exclusive () =
  let sys = System.create ~seed:5 Policy.taichi_default in
  System.warmup sys;
  let tc = match System.taichi sys with Some tc -> tc | None -> assert false in
  let auditor = Audit.create tc in
  let t =
    Task.create ~name:"x"
      ~step:(Program.to_step [ Program.compute (Time_ns.ms 50) ])
      ()
  in
  System.spawn_cp sys t;
  Audit.start auditor t ~duration:(Time_ns.ms 5) ~on_report:(fun _ -> ());
  Alcotest.check_raises "second concurrent audit rejected"
    (Invalid_argument "Audit.start: an audit is already running") (fun () ->
      Audit.start auditor t ~duration:(Time_ns.ms 5) ~on_report:(fun _ -> ()))

(* --- extra policies ----------------------------------------------------------------- *)

let test_new_policy_properties () =
  checki "dedicated core burns one" 1 (Policy.dp_cores_lost Policy.Dedicated_core);
  checkb "uintr cheap notify" true
    (Policy.reclaim_switch_cost Policy.Uintr_coschedule
    < Policy.reclaim_switch_cost Policy.Naive_coschedule);
  let sys = System.create ~seed:6 Policy.Dedicated_core in
  checki "7 dp cores left" 7 (List.length (System.dp_cores sys));
  let sys2 = System.create ~seed:6 Policy.Uintr_coschedule in
  checki "uintr keeps 8" 8 (List.length (System.dp_cores sys2))

(* --- randomized kernel stress --------------------------------------------------------- *)

(* Generate random task programs and scheduling disturbances; assert the
   fundamental invariants: every task finishes, executes exactly its
   nominal work, and no lock is left held. *)
let kernel_fuzz_once seed =
  let rng = Rng.create ~seed in
  let sim = Sim.create () in
  let machine =
    Machine.create ~config:{ Machine.default_config with physical_cores = 4 } sim
  in
  let kernel = Kernel.create machine in
  let cpus = List.init 4 (fun id -> Kernel.add_physical_cpu kernel ~id ()) in
  let locks = [ Task.spinlock "fz-a"; Task.spinlock "fz-b" ] in
  let n_tasks = 3 + Rng.int rng 8 in
  let expected_work = Array.make n_tasks 0 in
  let tasks =
    List.init n_tasks (fun i ->
        let phases = 1 + Rng.int rng 5 in
        let instrs = ref [] in
        for _ = 1 to phases do
          let work = 10_000 + Rng.int rng 3_000_000 in
          expected_work.(i) <- expected_work.(i) + work;
          let instr =
            match Rng.int rng 4 with
            | 0 -> [ Program.compute work ]
            | 1 -> [ Program.kernel_routine work ]
            | 2 ->
                let lock = List.nth locks (Rng.int rng 2) in
                Program.critical_section lock [ Program.kernel_routine work ]
            | _ ->
                [ Program.compute work; Program.sleep (Rng.int rng 1_000_000) ]
          in
          instrs := !instrs @ instr
        done;
        Task.create ~name:(Printf.sprintf "fz-%d" i)
          ~step:(Program.to_step !instrs)
          ())
  in
  List.iter (Kernel.spawn kernel) tasks;
  (* Random disturbances: backing flaps and lend/reclaim cycles. *)
  for _ = 1 to 30 do
    let at = Rng.int rng 30_000_000 in
    let c = List.nth cpus (Rng.int rng 4) in
    match Rng.int rng 3 with
    | 0 ->
        ignore
          (Sim.at sim at (fun () ->
               Kernel.set_backed kernel c false;
               ignore
                 (Sim.after sim (Rng.int rng 300_000 + 1) (fun () ->
                      Kernel.set_backed kernel c true))))
    | 1 ->
        ignore
          (Sim.at sim at (fun () ->
               Kernel.reclaim kernel c ~on_granted:(fun () ->
                   ignore
                     (Sim.after sim (Rng.int rng 300_000 + 1) (fun () ->
                          Kernel.lend kernel c)))))
    | _ ->
        ignore (Sim.at sim at (fun () -> Kernel.requeue_if_preemptible kernel c))
  done;
  Sim.run ~until:(Time_ns.sec 10) sim;
  (* Give any trailing lend/backing timers a chance, then drain fully. *)
  List.iter (fun c -> Kernel.set_backed kernel c true) cpus;
  List.iter (fun c -> Kernel.lend kernel c) cpus;
  Sim.run ~until:(Time_ns.sec 20) sim;
  List.iteri
    (fun i task ->
      if not (Task.is_finished task) then
        failwith (Printf.sprintf "fuzz(%d): task %d did not finish" seed i);
      if task.Task.cpu_time <> expected_work.(i) then
        failwith
          (Printf.sprintf "fuzz(%d): task %d work %d <> expected %d" seed i
             task.Task.cpu_time expected_work.(i)))
    tasks;
  List.iter
    (fun lock ->
      if lock.Task.owner <> None then
        failwith (Printf.sprintf "fuzz(%d): lock left held" seed))
    locks;
  true

let prop_kernel_fuzz =
  QCheck.Test.make ~name:"kernel fuzz: work conservation under disturbances"
    ~count:60
    QCheck.(int_range 0 10_000)
    kernel_fuzz_once

let suite =
  [
    ("softirq deferred dispatch", `Quick, test_softirq_deferred_dispatch);
    ("softirq coalescing", `Quick, test_softirq_coalescing);
    ("softirq per-cpu isolation", `Quick, test_softirq_per_cpu_isolation);
    ( "softirq coalesced raise allocates nothing",
      `Quick,
      test_softirq_coalesced_raise_no_alloc );
    ("taichi places via softirq", `Quick, test_taichi_uses_softirq);
    ("audit reports telemetry", `Quick, test_audit_reports_telemetry);
    ("audit is exclusive", `Quick, test_audit_exclusive);
    ("new policy properties", `Quick, test_new_policy_properties);
    QCheck_alcotest.to_alcotest prop_kernel_fuzz;
  ]
