(* Layer drivers: short loops that call one layer directly, so a per-layer
   cost can be read without the rest of the simulator around it. Each
   returns [(metric, value)] pairs; a timed value is the median of
   [trials] runs of the loop. *)

open Taichi_engine
module P = Taichi_platform

let trials = 5

let median_of f = Ledger_core.median (List.init trials (fun _ -> f ()))

(* Nanoseconds per iteration of [body], over [iters] iterations. *)
let ns_per ~iters body =
  median_of (fun () ->
      let t0 = Unix.gettimeofday () in
      body iters;
      (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters)

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* --- engine ------------------------------------------------------------------ *)

(* Hold model over a standing queue of 65,536 events spread across the
   calendar wheel's 2 ms horizon: every fired event schedules its own
   successor, so the depth stays put while the loop measures one fire
   plus one schedule. *)
let engine ~rng =
  let depth = 65_536 in
  let delays = Array.init 4096 (fun _ -> 1 + Rng.int rng 2_000_000) in
  let sim = Sim.create () in
  let k = ref 0 in
  let rec hold () =
    incr k;
    ignore (Sim.after sim delays.(!k land 4095) hold)
  in
  for i = 0 to depth - 1 do
    ignore (Sim.after sim delays.(i land 4095) hold)
  done;
  let after_fire =
    ns_per ~iters:400_000 (fun n ->
        for _ = 1 to n do
          ignore (Sim.step sim)
        done)
  in
  let noop () = () in
  let after_cancel =
    ns_per ~iters:400_000 (fun n ->
        for i = 1 to n do
          Sim.cancel sim (Sim.after sim delays.(i land 4095) noop)
        done)
  in
  let ctr = Counters.create () in
  let h = Counters.handle ctr "ledger.driver" in
  let incr_h =
    ns_per ~iters:4_000_000 (fun n ->
        for _ = 1 to n do
          Counters.incr_h ctr h
        done)
  in
  let lane = Counters.lane ctr "ledger.lane" in
  let lane_incr =
    ns_per ~iters:4_000_000 (fun n ->
        for i = 1 to n do
          Counters.lane_incr lane (i land 3)
        done)
  in
  [
    ("engine.after_fire_ns", after_fire);
    ("engine.after_cancel_ns", after_cancel);
    ("engine.counters.incr_h_ns", incr_h);
    ("engine.counters.lane_incr_ns", lane_incr);
  ]

(* --- accel ------------------------------------------------------------------ *)

(* submit -> ring delivery -> pop_burst_into -> free, per packet. *)
let accel () =
  let module A = Taichi_accel in
  let pipeline burst =
    let sim = Sim.create () in
    let p = A.Pipeline.create sim in
    let ring = A.Ring.create ~capacity:4096 ~name:"ledger" () in
    A.Pipeline.attach_ring p ~core:0 ring;
    let arena = A.Pipeline.arena p in
    let buf = Array.make burst A.Packet.dummy in
    fun packets ->
      for _ = 1 to packets / burst do
        for i = 1 to burst do
          A.Pipeline.submit p
            (A.Packet.alloc arena ~kind:A.Packet.Net_rx ~size:1400 ~dst_core:0
               ~tag:i)
        done;
        Sim.run sim;
        let n = A.Ring.pop_burst_into ring buf ~max:burst in
        for j = 0 to n - 1 do
          A.Packet.free arena buf.(j)
        done
      done
  in
  let per_packet burst = ns_per ~iters:320_000 (pipeline burst) in
  let words =
    let run = pipeline 32 in
    run 3200;
    let w0 = minor_words () in
    run 320_000;
    (minor_words () -. w0) /. 320_000.
  in
  [
    ("accel.pkt_ns.b1", per_packet 1);
    ("accel.pkt_ns.b8", per_packet 8);
    ("accel.pkt_ns.b32", per_packet 32);
    ("accel.pkt_minor_words", words);
  ]

(* --- core wsched ------------------------------------------------------------- *)

(* push/pop/charge with four entries queued per tenant, at the tenant
   counts of the scaling curve (61 is the int-bitmask cap). *)
let wsched () =
  let module W = Taichi_core.Wsched in
  let pop_ns tenants =
    let q = W.create ~weights:(Array.make tenants 1) ~classes:3 in
    for t = 0 to tenants - 1 do
      for _ = 1 to 4 do
        W.push q ~tenant:t ~cls:1 t
      done
    done;
    let gate _ = true in
    ns_per ~iters:400_000 (fun n ->
        for _ = 1 to n do
          match W.pop ~gate q with
          | Some t ->
              W.charge q ~tenant:t 1000;
              W.push q ~tenant:t ~cls:1 t
          | None -> ()
        done)
  in
  List.map
    (fun t -> (Printf.sprintf "core.wsched.pop_ns.t%d" t, pop_ns t))
    [ 1; 4; 16; 61 ]

(* --- metrics ------------------------------------------------------------------ *)

let quantile ~rng =
  let q = Taichi_metrics.Quantile.create ~slice:(Time_ns.us 500) () in
  let samples = Array.init 4096 (fun _ -> Rng.int rng 200_000) in
  let now = ref 0 in
  [
    ( "metrics.quantile_observe_ns",
      ns_per ~iters:1_000_000 (fun n ->
          for i = 1 to n do
            now := !now + 100;
            Taichi_metrics.Quantile.observe q ~now:!now samples.(i land 4095)
          done) );
  ]

(* --- fleet ---------------------------------------------------------------------- *)

(* Epoch cost of the exchange alone, with unit NICs that each send two
   messages per epoch (to their ring neighbour and across the rack). *)
let exchange_us_per_epoch nics =
  let module F = Taichi_fleet.Fleet in
  let epochs = 200 in
  median_of (fun () ->
      let fleet =
        F.create ~nics:(Array.make nics ())
          ~counters:(Array.init nics (fun _ -> Counters.create ()))
          ()
      in
      let t0 = Unix.gettimeofday () in
      F.run ~jobs:1 fleet ~epochs
        ~deliver:(fun ~nic:_ _ -> ())
        ~advance:(fun ~nic ~epoch:_ ->
          F.send fleet ~src:nic ~dst:((nic + 1) mod nics) "gossip";
          F.send fleet ~src:nic ~dst:((nic + (nics / 2)) mod nics) "probe");
      (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int epochs)

let fleet () =
  List.map
    (fun n -> (Printf.sprintf "fleet.exchange_us_per_epoch.n%d" n, exchange_us_per_epoch n))
    [ 4; 8; 16; 32 ]

(* n8-crash at one worker domain against one per host core. *)
let jobs_speedup ~seed =
  let run jobs =
    let ctx =
      P.Run_ctx.for_cell (P.Run_ctx.create ~audit:P.Run_ctx.Collect ())
    in
    let t0 = Unix.gettimeofday () in
    ignore
      (P.Fleet_run.run ~ctx ~seed
         { Workloads.n8_crash with P.Fleet_run.fleet_jobs = jobs });
    Unix.gettimeofday () -. t0
  in
  let one = run 1 in
  let many = run (min Workloads.n8_crash.P.Fleet_run.nics Workloads.ncpu) in
  [ ("fleet.jobs_speedup", one /. many) ]

(* Every driver, each under its own span. The fleet speed-up reruns a
   whole fleet point twice, so it only runs for a workload made of fleet
   points and reads 0 elsewhere. *)
let run spans (w : Workloads.t) ~seed =
  let rng = Rng.create ~seed in
  let drive name f = Ledger_core.span spans ("driver " ^ name) f in
  let engine = drive "engine" (fun () -> engine ~rng) in
  let accel = drive "accel" accel in
  let wsched = drive "wsched" wsched in
  let quantile = drive "quantile" (fun () -> quantile ~rng) in
  let fleet = drive "fleet.exchange" fleet in
  let jobs =
    if List.exists (function Workloads.Fleet_point _ -> true | _ -> false) w.groups
    then
      drive "fleet.jobs" (fun () -> jobs_speedup ~seed)
    else [ ("fleet.jobs_speedup", 0.0) ]
  in
  List.concat [ engine; accel; wsched; quantile; fleet; jobs ]
