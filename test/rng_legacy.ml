type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed64 =
  let st = ref seed64 in
  let s0 = splitmix_next st in
  let s1 = splitmix_next st in
  let s2 = splitmix_next st in
  let s3 = splitmix_next st in
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    { s0 = 1L; s1 = 2L; s2 = 3L; s3 = 4L }
  else { s0; s1; s2; s3 }

let create ~seed = of_seed64 (Int64.of_int seed)

let split parent name =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    name;
  let material =
    Int64.logxor !h (Int64.add parent.s0 (Int64.mul 0x9E3779B97F4A7C15L parent.s2))
  in
  of_seed64 material

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 r =
  let open Int64 in
  let result = add (rotl (add r.s0 r.s3) 23) r.s0 in
  let t = shift_left r.s1 17 in
  r.s2 <- logxor r.s2 r.s0;
  r.s3 <- logxor r.s3 r.s1;
  r.s1 <- logxor r.s1 r.s2;
  r.s0 <- logxor r.s0 r.s3;
  r.s2 <- logxor r.s2 t;
  r.s3 <- rotl r.s3 45;
  result

let nonneg r = Int64.to_int (Int64.shift_right_logical (bits64 r) 2)

let int r n =
  if n <= 0 then invalid_arg "Rng_legacy.int: bound must be positive";
  let limit = 0x3FFFFFFFFFFFFFFF / n * n in
  let rec draw () =
    let v = nonneg r in
    if v < limit then v mod n else draw ()
  in
  draw ()

let float r x =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 r) 11) in
  x *. (v /. 9007199254740992.0)

let bool r = Int64.logand (bits64 r) 1L = 1L
