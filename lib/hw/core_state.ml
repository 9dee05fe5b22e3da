open Taichi_engine

type direction = From_dp | To_dp

type state =
  | Offline
  | Dp_running
  | Dp_counting
  | Dp_parked
  | Vcpu_running of int
  | Switching of direction
  | Cp_dedicated

type cause =
  | Hotplug
  | Yield
  | Place
  | Probe
  | Slice_expiry
  | Halt
  | Lock_rescue
  | Borrow
  | Park
  | Wake
  | Drain
  | Resume
  | Lend
  | Watchdog

type event = {
  core : int;
  from_state : state;
  to_state : state;
  cause : cause;
  at : Time_ns.t;
  legal : bool;
}

type mode = Strict | Permissive

(* The per-state dwell labels, sorted by [String.compare]; [label_index]
   maps a state onto its label's position. *)
let labels =
  [| "cp"; "dp_counting"; "dp_parked"; "dp_running"; "offline"; "switching";
     "vcpu" |]

let label_index = function
  | Cp_dedicated -> 0
  | Dp_counting -> 1
  | Dp_parked -> 2
  | Dp_running -> 3
  | Offline -> 4
  | Switching _ -> 5
  | Vcpu_running _ -> 6

exception Illegal_transition of string

type t = {
  now : unit -> Time_ns.t;
  states : state array;
  since : Time_ns.t array;
  (* Cumulative dwell per core, indexed by [label_index]; the open span of
     the current state is added on read so [dwell] is always consistent
     with [now]. *)
  dwell : Time_ns.t array array;
  mutable mode : mode;
  mutable subscribers : (event -> unit) list;
  mutable invariants : (string * (unit -> string list)) list;
  mutable transitions : int;
  mutable illegal : int;
}

let create ~cores ~now =
  if cores <= 0 then invalid_arg "Core_state.create: cores must be positive";
  {
    now;
    states = Array.make cores Offline;
    since = Array.make cores (now ());
    dwell = Array.init cores (fun _ -> Array.make (Array.length labels) 0);
    mode = Strict;
    subscribers = [];
    invariants = [];
    transitions = 0;
    illegal = 0;
  }

let cores t = Array.length t.states
let mode t = t.mode
let set_mode t m = t.mode <- m

let check_core t core =
  if core < 0 || core >= Array.length t.states then
    invalid_arg (Printf.sprintf "Core_state: core %d out of range" core)

let get t ~core =
  check_core t core;
  t.states.(core)

let since t ~core =
  check_core t core;
  t.since.(core)

let state_label st = labels.(label_index st)

let trace_state = function
  | Dp_running | Dp_counting -> Trace.Cat.state_dp
  | Vcpu_running _ -> Trace.Cat.state_vcpu
  | Switching _ -> Trace.Cat.state_switch
  | Dp_parked | Cp_dedicated | Offline -> Trace.Cat.state_idle

let cause_label = function
  | Hotplug -> "hotplug"
  | Yield -> "yield"
  | Place -> "place"
  | Probe -> "probe"
  | Slice_expiry -> "slice_expiry"
  | Halt -> "halt"
  | Lock_rescue -> "lock_rescue"
  | Borrow -> "borrow"
  | Park -> "park"
  | Wake -> "wake"
  | Drain -> "drain"
  | Resume -> "resume"
  | Lend -> "lend"
  | Watchdog -> "watchdog"

(* The legality matrix (DESIGN.md §8). Any state may go [Offline]
   (hot-unplug); everything else follows the paper's switch discipline:
   occupancy only changes through an explicit [Switching] phase, and the
   data-plane's internal running/counting/parked cycle never skips steps. *)
let legal ~from ~to_ =
  match (from, to_) with
  | _, Offline -> true
  | Offline, (Dp_running | Dp_counting | Cp_dedicated) -> true
  | Dp_running, Dp_counting -> true
  | Dp_counting, (Dp_running | Dp_parked | Switching From_dp) -> true
  | Dp_parked, (Dp_running | Switching From_dp) -> true
  | ( Switching From_dp,
      (Switching From_dp | Switching To_dp | Vcpu_running _ | Cp_dedicated) )
    ->
      (* [Switching From_dp] may self-transition: a vCPU-to-vCPU rotation
         restarts the world switch without the core ever landing. It may
         also revert [To_dp] when the yield is revoked before anyone
         arrives (work came back mid-switch). *)
      true
  | Switching To_dp, (Dp_running | Dp_counting) -> true
  | Vcpu_running _, (Switching From_dp | Switching To_dp | Cp_dedicated) ->
      true
  | Cp_dedicated, (Switching From_dp | Switching To_dp) -> true
  | _, _ -> false

let describe core from to_ cause =
  Printf.sprintf "core %d: %s -> %s (cause %s)" core (state_label from)
    (state_label to_) (cause_label cause)

let add_dwell t core st span =
  let d = t.dwell.(core) and i = label_index st in
  d.(i) <- d.(i) + span

(* Top level and taking [ev] as an argument, so the fan-out builds no
   closure per transition. *)
let rec notify ev = function
  | [] -> ()
  | f :: rest ->
      f ev;
      notify ev rest

let transition t ~core ~cause to_ =
  check_core t core;
  let from = t.states.(core) in
  let at = t.now () in
  let is_legal = legal ~from ~to_ in
  if not is_legal then begin
    if t.mode = Strict then
      raise (Illegal_transition (describe core from to_ cause));
    t.illegal <- t.illegal + 1
  end;
  add_dwell t core from (at - t.since.(core));
  t.states.(core) <- to_;
  t.since.(core) <- at;
  t.transitions <- t.transitions + 1;
  let ev = { core; from_state = from; to_state = to_; cause; at; legal = is_legal }
  in
  notify ev t.subscribers

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]
let transitions t = t.transitions
let illegal_transitions t = t.illegal

let dwell_in t ~core st =
  check_core t core;
  let i = label_index st in
  let closed = t.dwell.(core).(i) in
  (* Fold the still-open span of the current state in. *)
  if label_index t.states.(core) = i then closed + (t.now () - t.since.(core))
  else closed

(* [labels] is in label order, so the list comes out sorted; labels never
   occupied are left out. *)
let dwell t ~core =
  check_core t core;
  let d = Array.copy t.dwell.(core) in
  let cur = label_index t.states.(core) in
  d.(cur) <- d.(cur) + (t.now () - t.since.(core));
  List.filter
    (fun (_, v) -> v > 0)
    (List.init (Array.length labels) (fun i -> (labels.(i), d.(i))))

let add_invariant t ~name f = t.invariants <- t.invariants @ [ (name, f) ]

let audit t =
  let base =
    if t.illegal > 0 then
      [ Printf.sprintf "%d illegal transition(s) recorded" t.illegal ]
    else []
  in
  base
  @ List.concat_map
      (fun (name, f) -> List.map (fun v -> name ^ ": " ^ v) (f ()))
      t.invariants
