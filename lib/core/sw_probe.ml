open Taichi_engine
open Taichi_hw

type t = {
  config : Config.t;
  machine : Machine.t option;
  h_sustained_idle : Counters.handle option;
  h_false_positive : Counters.handle option;
  thresholds : int array;
  fps : int array;
}

let create ?machine config ~cores =
  let h name =
    Option.map (fun m -> Counters.handle (Machine.counters m) name) machine
  in
  {
    config;
    machine;
    h_sustained_idle = h "probe.sw.sustained_idle";
    h_false_positive = h "probe.sw.false_positive";
    thresholds = Array.make cores config.Config.threshold_init;
    fps = Array.make cores 0;
  }

let threshold t ~core = t.thresholds.(core)

let note t ~core h event =
  match (t.machine, h) with
  | Some m, Some h ->
      Counters.incr_h (Machine.counters m) h;
      let trace = Machine.trace m in
      if Trace.enabled trace then
        Trace.emitf trace ~time:(Sim.now (Machine.sim m)) ~core
          ~category:Trace.Cat.probe_sw "%s threshold=%d" event
          t.thresholds.(core)
  | _ -> ()

let on_sustained_idle t ~core =
  if t.config.Config.adaptive_threshold then begin
    let n = t.thresholds.(core) - t.config.Config.threshold_dec in
    t.thresholds.(core) <- Int.max t.config.Config.threshold_min n;
    note t ~core t.h_sustained_idle "sustained_idle"
  end

let on_false_positive t ~core =
  t.fps.(core) <- t.fps.(core) + 1;
  if t.config.Config.adaptive_threshold then
    t.thresholds.(core) <-
      Int.min t.config.Config.threshold_max (t.thresholds.(core) * 2);
  note t ~core t.h_false_positive "false_positive"

let false_positives t ~core = t.fps.(core)
