open Taichi_engine
open Taichi_accel
module Recorder = Taichi_metrics.Recorder

let udp client rng ~cores ~until =
  let params =
    {
      Rr_engine.connections = 4;
      stages =
        [
          Rr_engine.stage ~kind:Packet.Net_rx ~size:64 ~gap_after:(Time_ns.us 2)
            ();
          Rr_engine.stage ~kind:Packet.Net_tx ~size:64 ~rx:false ();
        ];
      think = Time_ns.us 100;
      ramp = Time_ns.us 200;
    }
  in
  Rr_engine.run client rng ~params ~cores ~until

type udp_latency = { avg_us : float; p99_us : float; p999_us : float }

let udp_summary (result : Rr_engine.result) =
  let r = result.Rr_engine.transactions in
  if Recorder.count r = 0 then { avg_us = 0.0; p99_us = 0.0; p999_us = 0.0 }
  else
    {
      avg_us = Recorder.mean r /. 1e3;
      p99_us = Time_ns.to_us_f (Recorder.percentile r 99.0);
      p999_us = Time_ns.to_us_f (Recorder.percentile r 99.9);
    }
