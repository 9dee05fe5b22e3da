(* Buckets: values < 64 map one-to-one; above that, each power of two is
   split into 32 sub-buckets. The index layout (HdrHistogram with
   sub_bucket_bits = 5) lives in [Bucket_layout], shared with the
   sliding-window quantile sketch in taichi_metrics. *)

(* The running sum sits in a one-field float record, stored flat: a
   [mutable float] field beside the int fields would box on every add. *)
type sum = { mutable sum : float }

type t = {
  mutable buckets : int array;
  mutable n : int;
  total : sum;
  mutable lo : int;
  mutable hi : int;
}

let create () =
  { buckets = Array.make 1024 0; n = 0; total = { sum = 0.0 }; lo = max_int;
    hi = min_int }

let index_of = Bucket_layout.index_of
let upper_of = Bucket_layout.upper_of

let ensure h i =
  let cap = Array.length h.buckets in
  if i >= cap then begin
    let ncap = Int.max (i + 1) (cap * 2) in
    let narr = Array.make ncap 0 in
    Array.blit h.buckets 0 narr 0 cap;
    h.buckets <- narr
  end

let add_many h v n =
  if n > 0 then begin
    let v = if v < 0 then 0 else v in
    let i = index_of v in
    ensure h i;
    h.buckets.(i) <- h.buckets.(i) + n;
    h.n <- h.n + n;
    h.total.sum <- h.total.sum +. (float_of_int v *. float_of_int n);
    if v < h.lo then h.lo <- v;
    if v > h.hi then h.hi <- v
  end

let add h v = add_many h v 1
let count h = h.n
let mean h = if h.n = 0 then 0.0 else h.total.sum /. float_of_int h.n
let min_value h = if h.n = 0 then invalid_arg "Histogram.min_value: empty" else h.lo
let max_value h = if h.n = 0 then invalid_arg "Histogram.max_value: empty" else h.hi

let percentile h p =
  if h.n = 0 then invalid_arg "Histogram.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: p out of range";
  let target =
    Int.max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int h.n)))
  in
  (* Indexed scan with early exit: stop at the target bucket instead of
     walking the whole array for every percentile read. *)
  let len = Array.length h.buckets in
  let acc = ref 0 and result = ref h.hi and i = ref 0 in
  while !acc < target && !i < len do
    let c = h.buckets.(!i) in
    if c > 0 then begin
      acc := !acc + c;
      if !acc >= target then result := Int.min (upper_of !i) h.hi
    end;
    incr i
  done;
  Int.max h.lo !result

let cdf_points h =
  (* Early exit once every sample is accounted for: buckets past the
     last populated one are all zero. *)
  let len = Array.length h.buckets in
  let acc = ref 0 in
  let points = ref [] in
  let i = ref 0 in
  while !acc < h.n && !i < len do
    let c = h.buckets.(!i) in
    if c > 0 then begin
      acc := !acc + c;
      points := (upper_of !i, float_of_int !acc /. float_of_int h.n) :: !points
    end;
    incr i
  done;
  List.rev !points

let fraction_below h v =
  if h.n = 0 then 0.0
  else begin
    let limit = index_of (Int.max 0 v) in
    (* Only buckets below [limit] contribute; never scan past it. *)
    let last = Int.min limit (Array.length h.buckets) - 1 in
    let acc = ref 0 in
    for i = 0 to last do
      acc := !acc + h.buckets.(i)
    done;
    float_of_int !acc /. float_of_int h.n
  end

let merge a b =
  let out = create () in
  let fold src =
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          ensure out i;
          out.buckets.(i) <- out.buckets.(i) + c
        end)
      src.buckets;
    out.n <- out.n + src.n;
    out.total.sum <- out.total.sum +. src.total.sum;
    if src.n > 0 then begin
      if src.lo < out.lo then out.lo <- src.lo;
      if src.hi > out.hi then out.hi <- src.hi
    end
  in
  fold a;
  fold b;
  out

let clear h =
  Array.fill h.buckets 0 (Array.length h.buckets) 0;
  h.n <- 0;
  h.total.sum <- 0.0;
  h.lo <- max_int;
  h.hi <- min_int
