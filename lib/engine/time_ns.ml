type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000
let minutes n = n * 60_000_000_000

let round_to_int x =
  if x >= 0.0 then int_of_float (x +. 0.5) else -int_of_float (0.5 -. x)

let of_us_f x = round_to_int (x *. 1e3)
let to_us_f t = float_of_int t /. 1e3
let to_ms_f t = float_of_int t /. 1e6
let to_sec_f t = float_of_int t /. 1e9

let pp fmt t =
  let a = abs t in
  if a < 1_000 then Format.fprintf fmt "%dns" t
  else if a < 1_000_000 then Format.fprintf fmt "%.2fus" (to_us_f t)
  else if a < 1_000_000_000 then Format.fprintf fmt "%.2fms" (to_ms_f t)
  else Format.fprintf fmt "%.3fs" (to_sec_f t)

let to_string t = Format.asprintf "%a" pp t
