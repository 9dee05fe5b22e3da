(* Sliding-window quantile sketch: a ring of per-slice sample logs plus
   an incrementally maintained aggregate of bucket counts. Buckets use
   the shared [Taichi_engine.Bucket_layout] (the exact layout the engine
   Histogram uses — one implementation, so they cannot drift) with a
   fixed capacity and clamping instead of growth.

   A slice stores the bucket index of each of its samples, not a dense
   row of bucket counts: a governor slice holds a few hundred samples at
   most, against 1,024 buckets. Eviction decrements the aggregate once
   per logged sample. A log is an [int array] that doubles when it fills
   and is reused when its ring slot turns over, so once every slot's log
   has reached its working size [observe] allocates nothing. *)

open Taichi_engine

let bucket_cap = 1024
let index_of v = Int.min (Bucket_layout.index_of v) (bucket_cap - 1)
let upper_of = Bucket_layout.upper_of

type t = {
  slice : Time_ns.t;
  slices : int;
  logs : int array array; (* per slot: bucket index of each sample *)
  lens : int array; (* samples logged per slot *)
  agg : int array; (* bucket counts over the live slices *)
  mutable n : int; (* samples in window *)
  mutable top : int; (* no live sample lies in a bucket above this *)
  mutable head : int; (* absolute slice number of ring head, -1 = empty *)
  mutable head_slot : int; (* [head mod slices] *)
  mutable head_end : Time_ns.t; (* first instant past the head slice *)
}

let create ?(slices = 8) ~slice () =
  if slice <= 0 then invalid_arg "Quantile.create: slice <= 0";
  if slices <= 0 then invalid_arg "Quantile.create: slices <= 0";
  {
    slice;
    slices;
    logs = Array.make slices [||];
    lens = Array.make slices 0;
    agg = Array.make bucket_cap 0;
    n = 0;
    top = 0;
    head = -1;
    head_slot = 0;
    head_end = min_int;
  }

let window t = t.slices * t.slice

let evict t slot =
  let len = t.lens.(slot) in
  if len > 0 then begin
    let log = t.logs.(slot) in
    for k = 0 to len - 1 do
      let i = log.(k) in
      t.agg.(i) <- t.agg.(i) - 1
    done;
    t.n <- t.n - len;
    t.lens.(slot) <- 0
  end

(* Advance the ring so that absolute slice [now / slice] is the head,
   evicting every slice that fell out of the window on the way. Called
   only once [now] reaches [head_end], so the division is paid once per
   slice, not per sample. *)
let cross t ~now =
  let cur = now / t.slice in
  if t.head < 0 then t.head <- cur
  else if cur > t.head then begin
    let steps = cur - t.head in
    if steps >= t.slices then
      for slot = 0 to t.slices - 1 do
        evict t slot
      done
    else
      for s = 1 to steps do
        evict t ((t.head + s) mod t.slices)
      done;
    if t.n = 0 then t.top <- 0;
    t.head <- cur
  end;
  t.head_slot <- t.head mod t.slices;
  t.head_end <- (t.head + 1) * t.slice

let[@inline] advance t ~now = if now >= t.head_end then cross t ~now

let grow t slot =
  let log = t.logs.(slot) in
  let bigger = Array.make (Int.max 16 (2 * Array.length log)) 0 in
  Array.blit log 0 bigger 0 (Array.length log);
  t.logs.(slot) <- bigger;
  bigger

let observe t ~now v =
  advance t ~now;
  let i = index_of (Int.max 0 v) in
  let slot = t.head_slot in
  let len = t.lens.(slot) in
  let log =
    let log = t.logs.(slot) in
    if len < Array.length log then log else grow t slot
  in
  log.(len) <- i;
  t.lens.(slot) <- len + 1;
  t.agg.(i) <- t.agg.(i) + 1;
  if i > t.top then t.top <- i;
  t.n <- t.n + 1

let count t ~now =
  advance t ~now;
  t.n

(* The answer is the lowest bucket [i] whose prefix count reaches
   [target]. Since prefix(i) >= target exactly when the samples above
   [i] number at most [n - target], the walk starts at the highest
   occupied bucket and steps down while the samples at or above the
   current bucket still leave [target] below it. A p99 stops a few
   buckets under the top instead of scanning up from bucket 0. *)
let quantile t ~now q =
  if q < 0.0 || q > 100.0 then invalid_arg "Quantile.quantile: q out of range";
  advance t ~now;
  if t.n = 0 then None
  else begin
    let target =
      Int.max 1 (int_of_float (ceil (q /. 100.0 *. float_of_int t.n)))
    in
    let agg = t.agg in
    while agg.(t.top) = 0 do
      t.top <- t.top - 1
    done;
    let spare = t.n - target in
    let i = ref t.top and above = ref 0 in
    while !above + agg.(!i) <= spare do
      above := !above + agg.(!i);
      decr i
    done;
    Some (upper_of !i)
  end
