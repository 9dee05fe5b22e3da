open Taichi_engine
open Taichi_os

type params = {
  total_work : Time_ns.t;
  phases : int;
  kernel_fraction : float;
  locked_fraction : float;
  io_wait : Time_ns.t;
}

let default_params =
  {
    total_work = Time_ns.ms 50;
    phases = 10;
    kernel_fraction = 0.25;
    locked_fraction = 0.3;
    io_wait = Time_ns.us 500;
  }

(* Split [total] into [n] parts with ±30% jitter, summing to [total]. *)
let jittered_split rng total n =
  if n <= 0 then []
  else begin
    let weights = List.init n (fun _ -> 0.7 +. Rng.float rng 0.6) in
    let sum = List.fold_left ( +. ) 0.0 weights in
    List.map
      (fun w -> Int.max 1 (int_of_float (float_of_int total *. w /. sum)))
      weights
  end

let make ?(tenant = 0) ~rng ~params ~locks ~affinity ~name () =
  let kernel_work =
    int_of_float (float_of_int params.total_work *. params.kernel_fraction)
  in
  let user_work = params.total_work - kernel_work in
  let user_parts = jittered_split rng user_work params.phases in
  let kernel_parts = jittered_split rng kernel_work params.phases in
  let n_locks = List.length locks in
  let lock_counter = ref (Rng.int rng (Int.max 1 n_locks)) in
  let instrs =
    List.concat
      (List.map2
         (fun u k ->
           let locked =
             n_locks > 0 && Rng.bernoulli rng ~p:params.locked_fraction
           in
           let kernel_part = Program.kernel_routine k in
           let kernel_instrs =
             if locked then begin
               let lock = List.nth locks (!lock_counter mod n_locks) in
               incr lock_counter;
               Program.critical_section lock [ kernel_part ]
             end
             else [ kernel_part ]
           in
           let tail =
             if params.io_wait > 0 then [ Program.sleep params.io_wait ] else []
           in
           (Program.compute u :: kernel_instrs) @ tail)
         user_parts kernel_parts)
  in
  Task.create ~tenant ~affinity ~name ~step:(Program.to_step instrs) ()

let make_batch ?(tenant = 0) ~rng ~params ~locks ~affinity ~count () =
  List.init count (fun i ->
      make ~tenant ~rng ~params ~locks ~affinity
        ~name:(Printf.sprintf "synth_cp-%d" i)
        ())
