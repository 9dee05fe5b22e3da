type t =
  | Timeslice_expired
  | Hw_probe_irq
  | Ipi_send
  | Halt
  | External of string

let to_string = function
  | Timeslice_expired -> "timeslice_expired"
  | Hw_probe_irq -> "hw_probe_irq"
  | Ipi_send -> "ipi_send"
  | Halt -> "halt"
  | External s -> "external:" ^ s

(* Typed, so the per-exit histogram update in {!Vcpu} compares
   constructors instead of calling the polymorphic [caml_equal]. *)
let equal a b =
  match (a, b) with
  | Timeslice_expired, Timeslice_expired
  | Hw_probe_irq, Hw_probe_irq
  | Ipi_send, Ipi_send
  | Halt, Halt ->
      true
  | External s, External s' -> String.equal s s'
  | (Timeslice_expired | Hw_probe_irq | Ipi_send | Halt | External _), _ ->
      false

let pp fmt t = Format.pp_print_string fmt (to_string t)
