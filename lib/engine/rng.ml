(* The xoshiro256++ state words s0..s3 live at byte offsets 0, 8, 16 and
   24 of one [Bytes.t]. As [mutable int64] record fields every store
   would box; read and written through these primitives they stay
   unboxed. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* splitmix64: used to expand a seed into xoshiro state and to hash stream
   names into seed material. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed64 =
  let st = ref seed64 and r = Bytes.create 32 in
  for i = 0 to 3 do
    set r (8 * i) (splitmix_next st)
  done;
  (* xoshiro must not start from the all-zero state. *)
  if get r 0 = 0L && get r 8 = 0L && get r 16 = 0L && get r 24 = 0L then
    for i = 0 to 3 do
      set r (8 * i) (Int64.of_int (i + 1))
    done;
  r

let create ~seed = of_seed64 (Int64.of_int seed)

(* FNV-1a over the name, mixed with the parent's current s0 and s2 so
   that distinct parents with equal names still diverge. *)
let split parent name =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    name;
  let material =
    Int64.logxor !h
      (Int64.add (get parent 0) (Int64.mul 0x9E3779B97F4A7C15L (get parent 16)))
  in
  of_seed64 material

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256++ step. Inlined, so callers that consume the result as
   a number never box it. *)
let[@inline] next r =
  let open Int64 in
  let s0 = get r 0 and s1 = get r 8 and s2 = get r 16 and s3 = get r 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let s2 = logxor s2 s0 and s3 = logxor s3 s1 in
  set r 0 (logxor s0 s3);
  set r 8 (logxor s1 s2);
  set r 16 (logxor s2 (shift_left s1 17));
  set r 24 (rotl s3 45);
  result

let bits64 r = next r
let[@inline] nonneg r = Int64.to_int (Int64.shift_right_logical (next r) 2)

let int r n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. The rejection limit only
     depends on [n]; computing it once instead of per retry keeps the
     division out of the redraw loop. *)
  let limit = 0x3FFFFFFFFFFFFFFF / n * n in
  let v = ref (nonneg r) in
  while !v >= limit do
    v := nonneg r
  done;
  !v mod n

let int_range r ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_range: hi < lo";
  lo + int r (hi - lo + 1)

let float r x =
  let v = Int64.to_float (Int64.shift_right_logical (next r) 11) in
  x *. (v /. 9007199254740992.0) (* 2^53 *)

let bool r = Int64.logand (next r) 1L = 1L
let bernoulli r ~p = float r 1.0 < p

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
