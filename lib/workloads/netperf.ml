open Taichi_engine
open Taichi_accel
open Taichi_metrics

type stream_result = {
  rx_done : int ref;
  tx_done : int ref;
  data_latency : Recorder.t;
}

let stream ?(gap_mean = 0) client rng ~connections ~window ~size ~with_acks
    ~cores ~until =
  let sim = Client.sim client in
  let result =
    {
      rx_done = ref 0;
      tx_done = ref 0;
      data_latency = Recorder.create "stream.lat";
    }
  in
  let n_cores = List.length cores in
  if n_cores = 0 then invalid_arg "Netperf.stream: no cores";
  let core_of = Array.of_list cores in
  for conn = 0 to connections - 1 do
    let core = core_of.(conn mod n_cores) in
    let rec send_data () =
      if Sim.now sim < until then begin
        let t0 = Sim.now sim in
        Client.submit client ~kind:Packet.Net_rx ~size ~core
          ~on_done:(fun _ ->
            incr result.rx_done;
            Recorder.observe result.data_latency (Sim.now sim - t0);
            if with_acks && !(result.rx_done) mod 2 = 0 then
              Client.submit client ~kind:Packet.Net_tx ~size:64 ~core
                ~on_done:(fun _ -> incr result.tx_done)
                ();
            (* Closed loop: keep the window full, with optional bursty
               client-side pacing. *)
            if gap_mean > 0 then
              ignore
                (Sim.after sim (Dist.exponential_ns rng ~mean:gap_mean) send_data)
            else send_data ())
          ()
      end
    in
    let jitter = Rng.int rng 20_000 in
    for _slot = 1 to window do
      ignore (Sim.after sim jitter send_data)
    done
  done;
  result

let udp_stream client rng ~cores ~until =
  stream client rng ~connections:64 ~window:12 ~size:1400 ~with_acks:false
    ~cores ~until

let tcp_stream client rng ~cores ~until =
  stream client rng ~connections:64 ~window:12 ~size:1460 ~with_acks:true
    ~cores ~until

let per_sec count ~duration =
  if duration <= 0 then 0.0
  else float_of_int count /. Time_ns.to_sec_f duration

let stream_rx_pps result ~duration = per_sec !(result.rx_done) ~duration
let stream_tx_pps result ~duration = per_sec !(result.tx_done) ~duration

let wire_gap = Time_ns.us 3

let tcp_rr client rng ~cores ~until =
  let params =
    {
      Rr_engine.connections = 1024;
      stages =
        [
          Rr_engine.stage ~kind:Packet.Net_rx ~size:128 ~gap_after:wire_gap ();
          Rr_engine.stage ~kind:Packet.Net_tx ~size:128 ~rx:false ();
        ];
      think = Time_ns.us 14;
      ramp = Time_ns.ms 1;
    }
  in
  Rr_engine.run client rng ~params ~cores ~until

let tcp_crr client rng ~cores ~until =
  let params =
    {
      Rr_engine.connections = 1024;
      stages =
        [
          Rr_engine.stage ~conn_setup:true ~kind:Packet.Net_rx ~size:64
            ~gap_after:wire_gap ();
          Rr_engine.stage ~kind:Packet.Net_rx ~size:512 ~gap_after:wire_gap ();
          Rr_engine.stage ~kind:Packet.Net_tx ~size:2048 ~rx:false
            ~gap_after:wire_gap ();
          Rr_engine.stage ~kind:Packet.Net_rx ~size:64 ();
        ];
      think = Time_ns.us 10;
      ramp = Time_ns.ms 1;
    }
  in
  Rr_engine.run client rng ~params ~cores ~until
