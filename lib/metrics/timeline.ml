open Taichi_engine

type occupancy = {
  dp : Time_ns.t;
  vcpu : Time_ns.t;
  switch : Time_ns.t;
  idle : Time_ns.t;
}

let total o = o.dp + o.vcpu + o.switch + o.idle

type t = {
  duration : Time_ns.t;
  cores : occupancy array;
  event_counts : (string * int) list;
  dropped : int;
}

type state = Dp | Vcpu | Switch | Idle

let state_of_message m =
  if m = Trace.Cat.state_dp then Some Dp
  else if m = Trace.Cat.state_vcpu then Some Vcpu
  else if m = Trace.Cat.state_switch then Some Switch
  else if m = Trace.Cat.state_idle then Some Idle
  else None

let of_trace ~cores ~duration trace =
  let occ =
    Array.make cores { dp = 0; vcpu = 0; switch = 0; idle = 0 }
  in
  (* Every core starts idle at t=0; each core.state record closes the
     running span and opens the next, so spans partition [0, duration] by
     construction and the buckets sum exactly to the wall time. *)
  let cur = Array.make cores Idle in
  let since = Array.make cores 0 in
  let counts : (string, int ref) Hashtbl.t = Hashtbl.create 32 in
  let account core upto =
    let d = Int.max 0 (Int.min upto duration - since.(core)) in
    if d > 0 then begin
      let o = occ.(core) in
      occ.(core) <-
        (match cur.(core) with
        | Dp -> { o with dp = o.dp + d }
        | Vcpu -> { o with vcpu = o.vcpu + d }
        | Switch -> { o with switch = o.switch + d }
        | Idle -> { o with idle = o.idle + d })
    end;
    since.(core) <- Int.min upto duration
  in
  Trace.iter trace (fun r ->
      (match Hashtbl.find_opt counts r.Trace.category with
      | Some c -> incr c
      | None -> Hashtbl.replace counts r.Trace.category (ref 1));
      if r.Trace.category = Trace.Cat.core_state then
        match state_of_message r.Trace.message with
        | Some st when r.Trace.core >= 0 && r.Trace.core < cores ->
            account r.Trace.core r.Trace.time;
            cur.(r.Trace.core) <- st
        | Some _ | None -> ());
  for core = 0 to cores - 1 do
    account core duration
  done;
  let event_counts =
    Hashtbl.fold (fun k v acc -> (k, !v) :: acc) counts []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { duration; cores = occ; event_counts; dropped = Trace.dropped trace }

let duration t = t.duration
let n_cores t = Array.length t.cores

let occupancy t ~core = t.cores.(core)
let event_counts t = t.event_counts
let dropped t = t.dropped

let pct part whole =
  if whole <= 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let pp fmt t =
  Format.fprintf fmt "timeline over %s (%d cores)@."
    (Time_ns.to_string t.duration)
    (Array.length t.cores);
  Array.iteri
    (fun core o ->
      Format.fprintf fmt
        "  core %2d: dp=%5.1f%% vcpu=%5.1f%% switch=%5.1f%% idle=%5.1f%%@."
        core
        (pct o.dp t.duration)
        (pct o.vcpu t.duration)
        (pct o.switch t.duration)
        (pct o.idle t.duration))
    t.cores;
  if t.event_counts <> [] then begin
    Format.fprintf fmt "  events:";
    List.iter
      (fun (cat, n) -> Format.fprintf fmt " %s=%d" cat n)
      t.event_counts;
    Format.fprintf fmt "@."
  end
