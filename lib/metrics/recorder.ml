open Taichi_engine

type t = {
  name : string;
  hist : Histogram.t;
  stats : Stats.t;
}

let create name =
  {
    name;
    hist = Histogram.create ();
    stats = Stats.create ();
  }

let name r = r.name

let observe r v =
  Histogram.add r.hist v;
  Stats.add_int r.stats v

let count r = Histogram.count r.hist
let mean r = Stats.mean r.stats
let stddev r = Stats.stddev r.stats
let min_value r = Histogram.min_value r.hist
let max_value r = Histogram.max_value r.hist
let percentile r p = Histogram.percentile r.hist p
let histogram r = r.hist

let clear r =
  Histogram.clear r.hist;
  Stats.clear r.stats

let throughput_per_sec r ~duration =
  if duration <= 0 then 0.0
  else float_of_int (count r) /. Time_ns.to_sec_f duration

let pp_summary fmt r =
  if count r = 0 then Format.fprintf fmt "%s: no samples" r.name
  else
    Format.fprintf fmt "%s: n=%d mean=%s p50=%s p99=%s max=%s" r.name (count r)
      (Time_ns.to_string (int_of_float (mean r)))
      (Time_ns.to_string (percentile r 50.0))
      (Time_ns.to_string (percentile r 99.0))
      (Time_ns.to_string (max_value r))
