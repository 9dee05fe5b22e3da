(* All fields are floats, so the record is stored flat and [add] boxes
   nothing. The count is a float too: exact below 2^53, and [count]
   converts it back. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float;
  mutable total : float;
  mutable lo : float;
  mutable hi : float;
}

let create () =
  { n = 0.0; mean = 0.0; m2 = 0.0; total = 0.0; lo = infinity; hi = neg_infinity }

let clear s =
  s.n <- 0.0;
  s.mean <- 0.0;
  s.m2 <- 0.0;
  s.total <- 0.0;
  s.lo <- infinity;
  s.hi <- neg_infinity

(* Inlined, so the float [add_int] converts is never boxed. *)
let[@inline] add s x =
  s.n <- s.n +. 1.0;
  s.total <- s.total +. x;
  let delta = x -. s.mean in
  s.mean <- s.mean +. (delta /. s.n);
  s.m2 <- s.m2 +. (delta *. (x -. s.mean));
  if x < s.lo then s.lo <- x;
  if x > s.hi then s.hi <- x

let add_int s x = add s (float_of_int x)
let count s = int_of_float s.n
let sum s = s.total
let mean s = if s.n = 0.0 then 0.0 else s.mean
let variance s = if s.n < 2.0 then 0.0 else s.m2 /. (s.n -. 1.0)
let stddev s = sqrt (variance s)

let min s = if s.n = 0.0 then invalid_arg "Stats.min: empty" else s.lo
let max s = if s.n = 0.0 then invalid_arg "Stats.max: empty" else s.hi

let merge a b =
  if a.n = 0.0 then { b with n = b.n }
  else if b.n = 0.0 then { a with n = a.n }
  else begin
    let n = a.n +. b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. b.n /. n) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. a.n *. b.n /. n) in
    {
      n;
      mean;
      m2;
      total = a.total +. b.total;
      lo = Float.min a.lo b.lo;
      hi = Float.max a.hi b.hi;
    }
  end

let pp fmt s =
  if s.n = 0.0 then Format.fprintf fmt "n=0"
  else
    Format.fprintf fmt "n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f" (count s)
      (mean s) (stddev s) s.lo s.hi
