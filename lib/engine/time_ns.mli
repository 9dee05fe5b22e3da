(** Simulated time in integer nanoseconds.

    All simulator components express durations and instants as [Time_ns.t].
    A 63-bit integer nanosecond count covers about 146 years, far beyond any
    simulated experiment horizon. *)

type t = int
(** An instant or duration in nanoseconds. *)

val zero : t

val ns : int -> t
(** [ns n] is [n] nanoseconds. *)

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val sec : int -> t
(** [sec n] is [n] seconds. *)

val minutes : int -> t
(** [minutes n] is [n] minutes. *)

val of_us_f : float -> t
(** [of_us_f x] is [x] microseconds rounded to the nearest nanosecond. *)

val to_us_f : t -> float
(** [to_us_f t] is [t] expressed in microseconds. *)

val to_ms_f : t -> float
(** [to_ms_f t] is [t] expressed in milliseconds. *)

val to_sec_f : t -> float
(** [to_sec_f t] is [t] expressed in seconds. *)

val pp : Format.formatter -> t -> unit
(** [pp fmt t] prints [t] with an adaptive unit (ns, µs, ms or s). *)

val to_string : t -> string
(** [to_string t] is [Fmt.str "%a" pp t]. *)
