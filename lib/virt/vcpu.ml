open Taichi_engine

type placement = Unplaced | On_core of int

type t = {
  vid : int;
  kcpu : int;
  mutable tenant : int;
  mutable cls_rank : int;
  mutable placement : placement;
  mutable slice : Time_ns.t;
  mutable slice_started : Time_ns.t;
  mutable exits : (Vmexit.t * int) list;
  mutable total_backed : Time_ns.t;
  mutable last_placed : Time_ns.t;
}

let create ~vid ~kcpu ~initial_slice =
  {
    vid;
    kcpu;
    tenant = 0;
    cls_rank = 1;
    placement = Unplaced;
    slice = initial_slice;
    slice_started = 0;
    exits = [];
    total_backed = 0;
    last_placed = 0;
  }

let record_exit t reason =
  let rec bump = function
    | [] -> [ (reason, 1) ]
    | (r, n) :: rest when Vmexit.equal r reason -> (r, n + 1) :: rest
    | pair :: rest -> pair :: bump rest
  in
  t.exits <- bump t.exits

let rec count_of reason = function
  | [] -> 0
  | (r, n) :: rest -> if Vmexit.equal r reason then n else count_of reason rest

let exit_count t reason = count_of reason t.exits

let total_exits t = List.fold_left (fun acc (_, n) -> acc + n) 0 t.exits

let is_placed t = t.placement <> Unplaced
let core t = match t.placement with On_core c -> Some c | Unplaced -> None

let pp fmt t =
  Format.fprintf fmt "vcpu<%d kcpu=%d %s slice=%s exits=%d>" t.vid t.kcpu
    (match t.placement with
    | Unplaced -> "unplaced"
    | On_core c -> Printf.sprintf "core%d" c)
    (Time_ns.to_string t.slice)
    (total_exits t)
