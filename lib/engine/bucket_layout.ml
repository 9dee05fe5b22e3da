(* The HdrHistogram-style log-linear bucket layout shared by
   [Taichi_engine.Histogram] and [Taichi_metrics.Quantile]: values below
   2 * sub_count map one-to-one; above that, each power of two is split
   into [sub_count] sub-buckets (sub_bucket_bits = 5). Extracted so the
   two histogram implementations cannot drift apart — they used to carry
   hand-copied duplicates of these functions. *)

let sub_bits = 5
let sub_count = 1 lsl sub_bits (* 32 *)

(* Index of the bucket containing v (v >= 0). *)
let index_of v =
  if v < 2 * sub_count then v
  else
    (* Position of the highest set bit, in six halving steps. *)
    let h = ref 0 and step = ref 32 in
    while !step > 0 do
      if v lsr (!h + !step) <> 0 then h := !h + !step;
      step := !step lsr 1
    done;
    let h = !h in
    let shift = h - sub_bits in
    let sub = (v lsr shift) - sub_count in
    (((h - sub_bits) + 1) * sub_count) + sub

(* Upper bound of the values mapped to bucket [i]. For the topmost
   buckets the exact bound exceeds the native int range — the shifted
   (sub_count + sub + 1) would wrap — so it saturates at [max_int],
   keeping upper_of (index_of v) >= v over the full non-negative int
   range. *)
let upper_of i =
  if i < 2 * sub_count then i
  else
    let block = (i / sub_count) - 1 in
    let sub = i mod sub_count in
    if block >= Sys.int_size - sub_bits - 2 then max_int
    else ((sub_count + sub + 1) lsl block) - 1
