(* The dense sketch: a ring of per-slice 1,024-bucket histograms plus
   an incrementally maintained aggregate. Buckets use the shared
   [Taichi_engine.Bucket_layout], clamped at bucket 1,023. *)

open Taichi_engine

let bucket_cap = 1024
let index_of v = Int.min (Bucket_layout.index_of v) (bucket_cap - 1)
let upper_of = Bucket_layout.upper_of

type t = {
  slice : Time_ns.t;
  slices : int;
  ring : int array array; (* slices x bucket_cap *)
  slice_n : int array; (* samples per slice *)
  agg : int array; (* column sums of live slices *)
  mutable n : int; (* samples in window *)
  mutable head : int; (* absolute slice number of ring head, -1 = empty *)
}

let create ?(slices = 8) ~slice () =
  if slice <= 0 then invalid_arg "Quantile.create: slice <= 0";
  if slices <= 0 then invalid_arg "Quantile.create: slices <= 0";
  {
    slice;
    slices;
    ring = Array.init slices (fun _ -> Array.make bucket_cap 0);
    slice_n = Array.make slices 0;
    agg = Array.make bucket_cap 0;
    n = 0;
    head = -1;
  }

let window t = t.slices * t.slice

let evict t slot =
  let row = t.ring.(slot) in
  if t.slice_n.(slot) > 0 then begin
    for i = 0 to bucket_cap - 1 do
      if row.(i) > 0 then begin
        t.agg.(i) <- t.agg.(i) - row.(i);
        row.(i) <- 0
      end
    done;
    t.n <- t.n - t.slice_n.(slot);
    t.slice_n.(slot) <- 0
  end

(* Advance the ring so that absolute slice [cur] is the head, evicting
   every slice that fell out of the window on the way. *)
let advance t ~now =
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
    t.head <- cur
  end

let observe t ~now v =
  advance t ~now;
  let v = Int.max 0 v in
  let i = index_of v in
  let slot = t.head mod t.slices in
  t.ring.(slot).(i) <- t.ring.(slot).(i) + 1;
  t.slice_n.(slot) <- t.slice_n.(slot) + 1;
  t.agg.(i) <- t.agg.(i) + 1;
  t.n <- t.n + 1

let count t ~now =
  advance t ~now;
  t.n

let quantile t ~now q =
  if q < 0.0 || q > 100.0 then invalid_arg "Quantile.quantile: q out of range";
  advance t ~now;
  if t.n = 0 then None
  else begin
    let target =
      Int.max 1 (int_of_float (ceil (q /. 100.0 *. float_of_int t.n)))
    in
    let acc = ref 0 and i = ref 0 and result = ref 0 in
    while !acc < target && !i < bucket_cap do
      if t.agg.(!i) > 0 then begin
        acc := !acc + t.agg.(!i);
        result := upper_of !i
      end;
      incr i
    done;
    Some !result
  end
