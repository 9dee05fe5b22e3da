open Taichi_engine

let sample_utilizations rng ~n =
  Array.init n (fun _ ->
      let base =
        if Rng.bernoulli rng ~p:0.002 then
          (* Burst second: provisioning headroom being consumed. *)
          Dist.uniform rng ~lo:0.33 ~hi:0.95
        else Dist.lognormal rng ~mu:(log 0.10) ~sigma:0.42
      in
      Float.max 0.004 (Float.min 1.0 base))

let fraction_below (samples : float array) x =
  let below = Array.fold_left (fun acc v -> if v < x then acc + 1 else acc) 0 samples in
  float_of_int below /. float_of_int (Array.length samples)

let cdf_points samples ~xs =
  List.map (fun x -> (x, fraction_below samples x)) xs

let mean samples =
  Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)

(* Fleet load-curve modulation (ROADMAP item 3): a diurnal sine over a
   synthetic day plus seeded flash crowds, both pure functions of their
   inputs so every NIC in a fleet can evaluate the same curve without
   sharing state. *)

let diurnal ~phase =
  let p = phase -. Float.of_int (int_of_float phase) in
  let p = if p < 0.0 then p +. 1.0 else p in
  (* Trough 0.4x at p=0 ("03:00"), peak 1.6x half a day later. *)
  1.0 -. (0.6 *. cos (2.0 *. Float.pi *. p))

type flash_crowd = { at : float; magnitude : float; width : float }

let flash_crowds rng ~n =
  List.init (Int.max 0 n) (fun _ ->
      {
        at = Rng.float rng 1.0;
        magnitude = Dist.uniform rng ~lo:1.5 ~hi:4.0;
        width = Dist.uniform rng ~lo:0.01 ~hi:0.05;
      })

let crowd_factor crowds ~phase =
  List.fold_left
    (fun acc c ->
      (* Wrap-around distance on the unit circle keeps a crowd near the
         day boundary symmetric. *)
      let d = Float.abs (phase -. c.at) in
      let d = Float.min d (1.0 -. d) in
      if d >= c.width then acc
      else acc +. ((c.magnitude -. 1.0) *. (1.0 -. (d /. c.width))))
    1.0 crowds

let load_factor ?(crowds = []) ~phase () =
  Float.max 0.05 (diurnal ~phase *. crowd_factor crowds ~phase)
