(** Aligned text tables for paper-style experiment output. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t
(** [create ~columns] is an empty table with the given header. *)

val add_row : t -> string list -> unit
(** [add_row t cells] appends a row; raises [Invalid_argument] when the
    cell count differs from the column count. *)

val render : t -> string
(** [render t] is the table as a multi-line string with a title rule. *)

val print : ?title:string -> t -> unit
(** [print ?title t] renders to stdout with an optional title banner. *)

val cell_f : float -> string
(** [cell_f x] formats a float with adaptive precision for table cells. *)

val cell_pct : float -> string
(** [cell_pct x] formats a ratio [x] as a percentage, e.g. [0.0153] as
    ["1.53%"]. *)
