(** Declarative experiment descriptors: the registry's unit of work.

    A descriptor exposes its grid shape ([cells]) instead of hiding it in
    driver loops, which is what lets {!Sweep} fan cells out across
    domains and lets the CLI list cell counts or filter sub-matrices
    without running anything. *)

type cell = {
  key : string;  (** unique within the experiment; the canonical sort key *)
  label : string;  (** human-readable, for [--list] and progress output *)
}

type t =
  | T : {
      name : string;  (** registry id, e.g. ["fig17"] *)
      title : string;  (** banner line printed before the cells run *)
      description : string;  (** one-liner for [--list] *)
      cells : cell list;
      run_cell : Run_ctx.t -> seed:int -> scale:float -> cell -> 'r;
          (** evaluate one grid point. Must not touch shared mutable state:
              all output goes through the context, all harvest through its
              sink. Runs on an arbitrary domain. *)
      summarize :
        Run_ctx.t -> seed:int -> scale:float -> (cell * 'r) list -> unit;
          (** render tables / check cross-cell oracles, given the results
              of every cell that ran, in cell order. Always executes on
              the coordinating domain after all cells finished. *)
    }
      -> t

val make :
  name:string ->
  title:string ->
  description:string ->
  grid:(cell * 'p) list ->
  run_cell:(Run_ctx.t -> seed:int -> scale:float -> cell -> 'p -> 'r) ->
  summarize:(Run_ctx.t -> seed:int -> scale:float -> (cell * 'r) list -> unit) ->
  t
(** Pack a descriptor from its grid: each cell with its typed point. The
    cells run in grid order, and [run_cell] receives the point declared
    with the cell it is handed. Raises [Invalid_argument] on duplicate
    cell keys. *)

val result : (cell * 'r) list -> string -> 'r
(** [result results key] is the result of the cell with [key], for
    [summarize]. Raises [Not_found] when that cell did not run. *)

val result_opt : (cell * 'r) list -> string -> 'r option
(** Like {!result}, but [None] for a cell that did not run (filtered
    out, for example). *)

val single :
  name:string ->
  title:string ->
  description:string ->
  (Run_ctx.t -> seed:int -> scale:float -> unit) ->
  t
(** A one-cell experiment whose driver prints everything itself (through
    the context). *)

val name : t -> string
val description : t -> string
val cells : t -> cell list
val cell_count : t -> int
