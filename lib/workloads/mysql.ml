open Taichi_engine
open Taichi_accel
open Taichi_metrics

type params = {
  threads : int;
  queries_per_txn : int;
  net_exchanges : int;
  storage_ios : int;
  host_compute : Time_ns.t;
  io_size : int;
}

let default_params =
  {
    threads = 192;
    queries_per_txn = 5;
    net_exchanges = 2;
    storage_ios = 3;
    host_compute = Time_ns.ms 1;
    io_size = 4096;
  }

type result = {
  query_windows : int array;
  txn_windows : int array;
  query_latency : Recorder.t;
}

let run client rng ~params ~net_cores ~storage_cores ~duration =
  let sim = Client.sim client in
  let start = Sim.now sim in
  let until = start + duration in
  let seconds = (duration / Time_ns.sec 1) + 1 in
  let result =
    {
      query_windows = Array.make seconds 0;
      txn_windows = Array.make seconds 0;
      query_latency = Recorder.create "mysql.query";
    }
  in
  let record arr =
    let idx = (Sim.now sim - start) / Time_ns.sec 1 in
    if idx >= 0 && idx < seconds then arr.(idx) <- arr.(idx) + 1
  in
  let n_net = List.length net_cores and n_sto = List.length storage_cores in
  if n_net = 0 || n_sto = 0 then invalid_arg "Mysql.run: empty core lists";
  let net = Array.of_list net_cores and sto = Array.of_list storage_cores in
  for thread = 0 to params.threads - 1 do
    let net_core = net.(thread mod n_net) in
    let sto_core = sto.(thread mod n_sto) in
    let queries_in_txn = ref 0 in
    let rec start_query () =
      if Sim.now sim < until then begin
        let t0 = Sim.now sim in
        net_phase params.net_exchanges t0
      end
    and net_phase remaining t0 =
      if remaining = 0 then storage_phase params.storage_ios t0
      else
        Client.submit client ~kind:Packet.Net_rx ~size:512 ~core:net_core
          ~on_done:(fun _ ->
            ignore
              (Sim.after sim (Time_ns.us 3) (fun () ->
                   net_phase (remaining - 1) t0)))
          ()
    and storage_phase remaining t0 =
      if remaining = 0 then
        ignore (Sim.after sim params.host_compute (fun () -> finish_query t0))
      else begin
        let kind =
          if Rng.bernoulli rng ~p:0.7 then Packet.Storage_read
          else Packet.Storage_write
        in
        Client.submit client ~kind ~size:params.io_size ~core:sto_core
          ~on_done:(fun _ -> storage_phase (remaining - 1) t0)
          ()
      end
    and finish_query t0 =
      Recorder.observe result.query_latency (Sim.now sim - t0);
      record result.query_windows;
      incr queries_in_txn;
      if !queries_in_txn >= params.queries_per_txn then begin
        queries_in_txn := 0;
        record result.txn_windows
      end;
      start_query ()
    in
    ignore (Sim.after sim (Rng.int rng 2_000_000) start_query)
  done;
  result

type metrics = {
  max_query : float;
  avg_query : float;
  max_trans : float;
  avg_trans : float;
}

let window_stats arr =
  let n = Array.length arr in
  if n <= 2 then (0.0, 0.0)
  else begin
    let interior = Array.sub arr 1 (n - 2) in
    let mx = Array.fold_left Int.max 0 interior in
    let sum = Array.fold_left ( + ) 0 interior in
    (float_of_int mx, float_of_int sum /. float_of_int (Array.length interior))
  end

let metrics result =
  let max_query, avg_query = window_stats result.query_windows in
  let max_trans, avg_trans = window_stats result.txn_windows in
  { max_query; avg_query; max_trans; avg_trans }
