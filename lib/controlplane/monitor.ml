open Taichi_engine
open Taichi_os

let metrics_collector ~rng ~period ~affinity ~name =
  let np = Nonpreempt.create ~params:{ Nonpreempt.default_params with p_long = 0.01 } rng in
  let body =
    [
      Program.compute (Time_ns.us 80);
      Program.Gen
        (fun () -> [ Program.kernel_routine (Nonpreempt.sample np) ]);
      Program.kernel_routine ~preemptible:true (Time_ns.us 150);
      Program.sleep period;
    ]
  in
  Task.create ~affinity ~name ~step:(Program.to_step [ Program.Forever body ]) ()

let log_flusher ~rng ~period ~affinity ~name =
  let np = Nonpreempt.create ~params:{ Nonpreempt.default_params with p_long = 0.02 } rng in
  let body =
    [
      Program.compute (Time_ns.us 200);
      Program.Gen
        (fun () -> [ Program.kernel_routine (Nonpreempt.sample np) ]);
      Program.sleep period;
    ]
  in
  Task.create ~affinity ~name ~step:(Program.to_step [ Program.Forever body ]) ()

let orchestration_agent ~rng:_ ~period ~affinity ~name =
  let body =
    [
      Program.compute (Time_ns.us 120);
      Program.compute (Time_ns.us 300);
      Program.kernel_routine ~preemptible:true (Time_ns.us 60);
      Program.sleep period;
    ]
  in
  Task.create ~affinity ~name ~step:(Program.to_step [ Program.Forever body ]) ()

let production_ecosystem ~rng ~affinity ~tasks ~target_util () =
  let per_task_util = target_util /. float_of_int tasks in
  List.init tasks (fun i ->
      let rng_i = Rng.split rng (Printf.sprintf "eco-%d" i) in
      let np =
        Nonpreempt.create
          ~params:{ Nonpreempt.default_params with p_long = 0.02 }
          rng_i
      in
      let period = Dist.exponential_ns rng_i ~mean:(Time_ns.ms 15) + Time_ns.ms 2 in
      let work =
        Int.max (Time_ns.us 20)
          (int_of_float (float_of_int period *. per_task_util))
      in
      let kernel_share = 0.25 +. Rng.float rng_i 0.25 in
      let kernel_work = int_of_float (float_of_int work *. kernel_share) in
      let user_work = work - kernel_work in
      let body =
        [
          Program.compute user_work;
          Program.Gen
            (fun () ->
              (* Mix fixed kernel work with a sampled routine tail. *)
              [
                Program.kernel_routine
                  (Int.min (kernel_work + Nonpreempt.sample np) (Time_ns.ms 8));
              ]);
          Program.sleep period;
        ]
      in
      Task.create ~affinity
        ~name:(Printf.sprintf "eco-%d" i)
        ~step:(Program.to_step [ Program.Forever body ])
        ())

let standard_background ~rng ~affinity () =
  [
    metrics_collector ~rng ~period:(Time_ns.ms 10) ~affinity ~name:"mon-fast";
    metrics_collector ~rng ~period:(Time_ns.ms 50) ~affinity ~name:"mon-slow";
    log_flusher ~rng ~period:(Time_ns.ms 100) ~affinity ~name:"log-flush";
    orchestration_agent ~rng ~period:(Time_ns.ms 25) ~affinity ~name:"orch-agent";
  ]
