let exponential rng ~mean =
  let u = 1.0 -. Rng.float rng 1.0 in
  -.mean *. log u

let normal rng ~mu ~sigma =
  let u1 = 1.0 -. Rng.float rng 1.0 in
  let u2 = Rng.float rng 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let lognormal rng ~mu ~sigma = exp (normal rng ~mu ~sigma)

let pareto rng ~scale ~shape =
  let u = 1.0 -. Rng.float rng 1.0 in
  scale /. (u ** (1.0 /. shape))

let bounded_pareto rng ~lo ~hi ~shape =
  if lo <= 0.0 || hi <= lo then invalid_arg "Dist.bounded_pareto: need 0 < lo < hi";
  let u = Rng.float rng 1.0 in
  let la = lo ** shape and ha = hi ** shape in
  let num = -.((u *. ha) -. u *. la -. ha) /. (ha *. la) in
  num ** (-1.0 /. shape)

let poisson rng ~lambda =
  if lambda <= 0.0 then 0
  else if lambda < 64.0 then begin
    let l = exp (-.lambda) in
    let k = ref 0 and p = ref 1.0 in
    let continue = ref true in
    while !continue do
      p := !p *. Rng.float rng 1.0;
      if !p > l then incr k else continue := false
    done;
    !k
  end
  else
    let x = normal rng ~mu:lambda ~sigma:(sqrt lambda) in
    Int.max 0 (int_of_float (x +. 0.5))

let uniform rng ~lo ~hi = lo +. Rng.float rng (hi -. lo)

type empirical = { values : float array; cum : float array }

let empirical_of_weighted bins =
  if bins = [] then invalid_arg "Dist.empirical_of_weighted: empty";
  let bins = List.sort (fun (a, _) (b, _) -> compare a b) bins in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 bins in
  if total <= 0.0 then invalid_arg "Dist.empirical_of_weighted: zero weight";
  let n = List.length bins in
  let values = Array.make n 0.0 and cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  List.iteri
    (fun i (v, w) ->
      acc := !acc +. (w /. total);
      values.(i) <- v;
      cum.(i) <- !acc)
    bins;
  cum.(n - 1) <- 1.0;
  { values; cum }

let empirical_sample e rng =
  let u = Rng.float rng 1.0 in
  let n = Array.length e.values in
  (* Binary search for the first cumulative weight >= u. *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if e.cum.(mid) < u then lo := mid + 1 else hi := mid
  done;
  let i = !lo in
  if i = 0 then e.values.(0) *. (0.5 +. (0.5 *. u /. e.cum.(0)))
  else
    (* Interpolate between adjacent quantile points for a smooth sample. *)
    let frac = (u -. e.cum.(i - 1)) /. (e.cum.(i) -. e.cum.(i - 1) +. 1e-12) in
    e.values.(i - 1) +. (frac *. (e.values.(i) -. e.values.(i - 1)))

let exponential_ns rng ~mean =
  Int.max 1 (int_of_float (exponential rng ~mean:(float_of_int mean)))

let lognormal_ns rng ~median ~sigma =
  Int.max 1 (int_of_float (lognormal rng ~mu:(log (float_of_int median)) ~sigma))
