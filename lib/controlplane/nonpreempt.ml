open Taichi_engine

type params = {
  p_long : float;
  short_median : Time_ns.t;
  short_sigma : float;
  long_min : Time_ns.t;
  long_max : Time_ns.t;
  long_shape : float;
}

let default_params =
  {
    p_long = 0.04;
    short_median = Time_ns.us 120;
    short_sigma = 0.9;
    long_min = Time_ns.ms 1;
    long_max = Time_ns.ms 67;
    long_shape = 1.8;
  }

type t = { params : params; rng : Rng.t }

let create ?(params = default_params) rng = { params; rng }

let sample_long t =
  let p = t.params in
  let x =
    Dist.bounded_pareto t.rng
      ~lo:(float_of_int p.long_min)
      ~hi:(float_of_int p.long_max)
      ~shape:p.long_shape
  in
  int_of_float x

let sample t =
  let p = t.params in
  if Rng.bernoulli t.rng ~p:p.p_long then sample_long t
  else
    Int.min (p.long_min - 1)
      (Dist.lognormal_ns t.rng ~median:p.short_median ~sigma:p.short_sigma)

let fig5_buckets =
  [
    ("1-5ms", Time_ns.ms 1, Time_ns.ms 5);
    ("5-10ms", Time_ns.ms 5, Time_ns.ms 10);
    ("10-20ms", Time_ns.ms 10, Time_ns.ms 20);
    ("20-40ms", Time_ns.ms 20, Time_ns.ms 40);
    ("40-67ms", Time_ns.ms 40, Time_ns.ms 67);
  ]
