open Taichi_engine

type params = {
  target_util : float;
  per_packet_est : Time_ns.t;
  burst_mean : float;
  on_fraction : float;
  on_off_ratio : float;
  phase_mean : Time_ns.t;
}

let default_params ~target_util =
  {
    target_util;
    per_packet_est = Time_ns.ns 2200;
    burst_mean = 8.0;
    on_fraction = 0.35;
    on_off_ratio = 4.0;
    phase_mean = Time_ns.ms 2;
  }

(* Per-core MMPP: rates are chosen so the time-weighted average packet rate
   hits target_util / per_packet_est. *)
let start client rng ~params ~cores ~kind ~size ~until =
  let sim = Client.sim client in
  let p = params in
  let avg_rate = p.target_util /. float_of_int p.per_packet_est in
  (* avg = f*hi + (1-f)*lo, hi = r*lo *)
  let lo_rate =
    avg_rate /. ((p.on_fraction *. p.on_off_ratio) +. (1.0 -. p.on_fraction))
  in
  let hi_rate = lo_rate *. p.on_off_ratio in
  List.iter
    (fun core ->
      let rng = Rng.split rng (Printf.sprintf "bgload-%d" core) in
      let in_hi = ref (Rng.bernoulli rng ~p:p.on_fraction) in
      let phase_ends = ref 0 in
      let next_phase () =
        in_hi := not !in_hi;
        phase_ends :=
          Sim.now sim + Dist.exponential_ns rng ~mean:p.phase_mean
      in
      phase_ends := Dist.exponential_ns rng ~mean:p.phase_mean;
      let rec burst () =
        if Sim.now sim < until then begin
          if Sim.now sim >= !phase_ends then next_phase ();
          let rate = if !in_hi then hi_rate else lo_rate in
          let n = Int.max 1 (Dist.poisson rng ~lambda:p.burst_mean) in
          for _ = 1 to n do
            Client.submit_background client ~kind ~size ~core
          done;
          let gap =
            Dist.exponential rng ~mean:(float_of_int n /. rate)
          in
          ignore (Sim.after sim (Int.max 1 (int_of_float gap)) burst)
        end
      in
      (* Desynchronize cores. *)
      ignore (Sim.after sim (Rng.int rng 1_000_000) burst))
    cores
