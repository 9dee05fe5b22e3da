open Taichi_engine

type cpu_class = Dp_work | Dp_poll | Cp_work | Spin | Switch | Os

let class_index = function
  | Dp_work -> 0
  | Dp_poll -> 1
  | Cp_work -> 2
  | Spin -> 3
  | Switch -> 4
  | Os -> 5

type t = { cells : Time_ns.t array array }

let create ~cores = { cells = Array.init cores (fun _ -> Array.make 6 0) }

let charge t ~core cls d =
  if d < 0 then invalid_arg "Accounting.charge: negative duration";
  let row = t.cells.(core) in
  let i = class_index cls in
  row.(i) <- row.(i) + d

let busy t ~core = Array.fold_left ( + ) 0 t.cells.(core)
let busy_class t ~core cls = t.cells.(core).(class_index cls)

let total_class t cls =
  Array.fold_left (fun acc row -> acc + row.(class_index cls)) 0 t.cells

let utilization t ~core ~elapsed =
  if elapsed <= 0 then 0.0
  else Float.min 1.0 (float_of_int (busy t ~core) /. float_of_int elapsed)
