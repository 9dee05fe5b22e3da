(* Tests for the poll-mode data-plane service: processing, idleness
   detection, yield/resume, and the pollution surcharge. *)

open Taichi_engine
open Taichi_hw
open Taichi_accel
open Taichi_dataplane

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let make_system () =
  let sim = Sim.create () in
  let machine =
    Machine.create ~config:{ Machine.default_config with physical_cores = 2 } sim
  in
  let pipeline = Pipeline.create sim in
  let dp =
    Dp_service.create machine pipeline
      (Dp_service.default_config ~core:0 ~per_packet:(fun _ -> Time_ns.us 1) ())
  in
  Pipeline.set_deliver_hook pipeline (fun ~core:_ ->
      Dp_service.on_ring_activity dp);
  Dp_service.start dp;
  (sim, machine, pipeline, dp)

let submit pipeline ?(core = 0) ?(tag = 0) () =
  Pipeline.submit pipeline
    (Packet.create ~kind:Packet.Net_rx ~size:64 ~dst_core:core ~tag)

let test_processes_packet () =
  let sim, _, pipeline, dp = make_system () in
  submit pipeline ();
  Sim.run ~until:(Time_ns.ms 1) sim;
  checki "processed" 1 (Dp_service.packets_processed dp);
  let lat = Dp_service.latency dp in
  let v = Taichi_metrics.Recorder.max_value lat in
  (* window 3.2us + discovery 0.1 + processing 1us. *)
  checkb "latency sane" true (v >= 4200 && v < 5000)

let test_burst_batching () =
  let sim, _, pipeline, dp = make_system () in
  for _ = 1 to 40 do
    submit pipeline ()
  done;
  Sim.run ~until:(Time_ns.ms 2) sim;
  checki "all processed" 40 (Dp_service.packets_processed dp);
  let bursts = Dp_service.bursts dp in
  checkb "batched into >=2 bursts (32 cap)" true (bursts >= 2 && bursts <= 5)

let test_idle_detection_timing () =
  let sim, _, _, dp = make_system () in
  let hooks = Dp_service.hooks dp in
  hooks.Dp_service.idle_threshold <- (fun () -> 100);
  let detected_at = ref (-1) in
  hooks.Dp_service.idle_detected <- (fun _ -> detected_at := Sim.now sim);
  (* Restart counting with the new threshold by running from time 0. *)
  Sim.run ~until:(Time_ns.ms 1) sim;
  (* Default threshold 200 was armed at start: detection at 20us. *)
  checkb "detected" true (!detected_at >= 0);
  checkb "around threshold x poll cost" true (!detected_at <= Time_ns.us 25)

let test_arrival_cancels_idle () =
  let sim, _, pipeline, dp = make_system () in
  let hooks = Dp_service.hooks dp in
  let detected = ref 0 in
  hooks.Dp_service.idle_detected <- (fun _ -> incr detected);
  (* Arrival at 10us, before the 20us threshold crossing. *)
  ignore (Sim.at sim (Time_ns.us 10) (fun () -> submit pipeline ()));
  Sim.run ~until:(Time_ns.us 19) sim;
  checki "no premature detection" 0 !detected;
  Sim.run ~until:(Time_ns.ms 1) sim;
  (* After processing, counting restarts and eventually detects. *)
  checkb "detected after quiescence" true (!detected >= 1)

let test_yield_resume_cycle () =
  let sim, _, pipeline, dp = make_system () in
  let hooks = Dp_service.hooks dp in
  hooks.Dp_service.idle_detected <-
    (fun dp -> ignore (Dp_service.try_yield dp));
  let arrived_while_yielded = ref 0 in
  hooks.Dp_service.work_arrived_while_yielded <-
    (fun _ -> incr arrived_while_yielded);
  Sim.run ~until:(Time_ns.us 50) sim;
  checkb "yielded" true (Dp_service.state dp = Dp_service.Yielded);
  submit pipeline ();
  Sim.run ~until:(Time_ns.us 60) sim;
  checki "work-arrived hook" 1 !arrived_while_yielded;
  checki "not processed while yielded" 0 (Dp_service.packets_processed dp);
  Dp_service.resume dp ~switch_cost:(Time_ns.us 2);
  Sim.run ~until:(Time_ns.ms 1) sim;
  checki "processed after resume" 1 (Dp_service.packets_processed dp);
  checki "one resume" 1 (Dp_service.resumes dp)

let test_try_yield_refused_with_pending () =
  let sim, _, pipeline, dp = make_system () in
  submit pipeline ();
  (* In-flight in the accelerator window: yield must be refused. *)
  checkb "refused" false (Dp_service.try_yield dp);
  Sim.run ~until:(Time_ns.ms 1) sim;
  checki "packet processed" 1 (Dp_service.packets_processed dp)

let test_spike_counter () =
  let sim, _, pipeline, dp = make_system () in
  let hooks = Dp_service.hooks dp in
  hooks.Dp_service.idle_detected <- (fun dp -> ignore (Dp_service.try_yield dp));
  Sim.run ~until:(Time_ns.us 50) sim;
  submit pipeline ();
  (* Resume only after 200us: the packet latency exceeds the 100us spike
     threshold. *)
  ignore
    (Sim.at sim (Time_ns.us 250) (fun () ->
         Dp_service.resume dp ~switch_cost:(Time_ns.us 2)));
  Sim.run ~until:(Time_ns.ms 1) sim;
  checki "spike recorded" 1 (Dp_service.spikes dp)

let test_speed_tax_slows_processing () =
  let sim, _, pipeline, dp = make_system () in
  Dp_service.set_speed_tax dp 1.0 (* 2x slower *);
  submit pipeline ();
  Sim.run ~until:(Time_ns.ms 1) sim;
  let v = Taichi_metrics.Recorder.max_value (Dp_service.latency dp) in
  checkb "taxed latency" true (v >= 5200)

let test_pollution_increases_cost () =
  let sim, machine, pipeline, dp = make_system () in
  (* Pollute the core as a vCPU occupancy would. *)
  Cache_model.occupy_foreign (Machine.cache machine) ~core:0 (Time_ns.ms 1);
  submit pipeline ();
  Sim.run ~until:(Time_ns.ms 1) sim;
  let v = Taichi_metrics.Recorder.max_value (Dp_service.latency dp) in
  checkb "pollution surcharge visible" true (v > 4300)

let test_busy_fraction () =
  let sim, _, pipeline, dp = make_system () in
  for _ = 1 to 100 do
    submit pipeline ()
  done;
  Sim.run ~until:(Time_ns.ms 1) sim;
  let f = Dp_service.busy_fraction dp ~elapsed:(Time_ns.ms 1) in
  (* 100us of work in 1ms elapsed. *)
  checkb "about 10%" true (f > 0.08 && f < 0.13)

let test_net_service_cost_model () =
  let cost = Net_service.default_cost in
  let small = Packet.create ~kind:Packet.Net_rx ~size:64 ~dst_core:0 ~tag:0 in
  let big = Packet.create ~kind:Packet.Net_rx ~size:1500 ~dst_core:0 ~tag:0 in
  let conn =
    Packet.create ~kind:Packet.Net_rx ~size:64 ~dst_core:0
      ~tag:Net_service.connection_tag_bit
  in
  checkb "size-dependent" true
    (Net_service.packet_cost cost big > Net_service.packet_cost cost small);
  checkb "connection extra" true
    (Net_service.packet_cost cost conn
    > Net_service.packet_cost cost small + Time_ns.us 5)

let test_storage_service_cost_model () =
  let cost = Storage_service.default_cost in
  let read = Packet.create ~kind:Packet.Storage_read ~size:4096 ~dst_core:0 ~tag:0 in
  let write = Packet.create ~kind:Packet.Storage_write ~size:4096 ~dst_core:0 ~tag:0 in
  let big_read = Packet.create ~kind:Packet.Storage_read ~size:65536 ~dst_core:0 ~tag:0 in
  checkb "write penalty" true
    (Storage_service.io_cost cost write > Storage_service.io_cost cost read);
  checkb "size scaling" true
    (Storage_service.io_cost cost big_read > 2 * Storage_service.io_cost cost read)

let suite =
  [
    ("processes packet", `Quick, test_processes_packet);
    ("burst batching", `Quick, test_burst_batching);
    ("idle detection timing", `Quick, test_idle_detection_timing);
    ("arrival cancels idle detection", `Quick, test_arrival_cancels_idle);
    ("yield/resume cycle", `Quick, test_yield_resume_cycle);
    ("yield refused with pending work", `Quick, test_try_yield_refused_with_pending);
    ("spike counter", `Quick, test_spike_counter);
    ("speed tax", `Quick, test_speed_tax_slows_processing);
    ("pollution surcharge", `Quick, test_pollution_increases_cost);
    ("busy fraction", `Quick, test_busy_fraction);
    ("net cost model", `Quick, test_net_service_cost_model);
    ("storage cost model", `Quick, test_storage_service_cost_model);
  ]
