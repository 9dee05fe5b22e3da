(* NIC-level fault domains for a fleet run: which NICs crash, brown out,
   which fabric halves partition, and which NIC each drain-window
   overrun prefers — all decided up front as a deterministic plan keyed
   on epochs, so the fleet controller replays it identically at any
   --jobs count.

   Every per-NIC decision draws from that NIC's own named stream
   (Rng.split root "nic<i>.<class>"), mirroring the per-class streams of
   Injector: adding a fault class, or a NIC, never perturbs the draws of
   another. Fleet-wide decisions (the partition window) draw from the
   "fabric.partition" stream. *)

open Taichi_engine

type event =
  | Crash of int
  | Brownout_start of int
  | Brownout_end of int
  | Partition_start of int array
  | Partition_end
  | Drain_overrun of int

type spec = {
  crashes : int;  (** NICs to kill inside the crash window *)
  crash_window : int * int;  (** inclusive epoch window for crashes *)
  brownouts : int;
  brownout_hold : int;  (** epochs a brownout lasts *)
  partition : bool;  (** one fabric bisection during the run *)
  partition_hold : int;
  overruns : int;  (** drain-window overruns pinned during failover *)
}

let quiet =
  {
    crashes = 0;
    crash_window = (0, 0);
    brownouts = 0;
    brownout_hold = 0;
    partition = false;
    partition_hold = 0;
    overruns = 0;
  }

(* Rank NICs by a score drawn from each NIC's own stream and keep the
   [k] lowest: a per-NIC-decorrelated, count-exact selection. Ties break
   by NIC id, so the plan is total-ordered. *)
let pick_nics ?(exclude = []) root ~cls ~nics k =
  let scored =
    List.init nics (fun i ->
        let rng = Rng.split root (Printf.sprintf "nic%d.%s" i cls) in
        (Rng.float rng 1.0, i, rng))
  in
  let sorted =
    List.sort
      (fun (a, i, _) (b, j, _) ->
        match compare a b with 0 -> compare i j | c -> c)
      scored
  in
  (* Every NIC draws its score before exclusion is applied, so an
     excluded NIC never perturbs another's stream. *)
  List.filter (fun (_, i, _) -> not (List.mem i exclude)) sorted
  |> List.filteri (fun idx _ -> idx < k)
  |> List.map (fun (_, i, rng) -> (i, rng))

let in_window rng (lo, hi) =
  if hi <= lo then lo else Rng.int_range rng ~lo ~hi

let crashed_nics events =
  List.filter_map (function _, Crash i -> Some i | _ -> None) events

let plan ~rng ~nics ~epochs spec =
  let events = ref [] in
  let add epoch ev = events := (max 0 (min (epochs - 1) epoch), ev) :: !events in
  (* Crashes: the chosen NIC's stream also places its crash epoch. *)
  List.iter
    (fun (i, nic_rng) -> add (in_window nic_rng spec.crash_window) (Crash i))
    (pick_nics rng ~cls:"crash" ~nics (min spec.crashes nics));
  (* Brownouts: window + hold from the NIC's own stream. *)
  List.iter
    (fun (i, nic_rng) ->
      let start = in_window nic_rng (1, max 1 (epochs / 2)) in
      add start (Brownout_start i);
      add (start + max 1 spec.brownout_hold) (Brownout_end i))
    (pick_nics rng ~cls:"brownout" ~nics (min spec.brownouts nics));
  (* One fabric bisection: each NIC picks its side from its own
     "nic<i>.partition" stream; the window comes from the fleet-level
     fabric stream. A degenerate all-one-side draw is re-homed by parity
     so the partition always has two sides. *)
  if spec.partition && nics > 1 then begin
    let fabric = Rng.split rng "fabric.partition" in
    let groups =
      Array.init nics (fun i ->
          let side = Rng.split rng (Printf.sprintf "nic%d.partition" i) in
          Rng.int side 2)
    in
    let all_same = Array.for_all (fun g -> g = groups.(0)) groups in
    if all_same then Array.iteri (fun i _ -> groups.(i) <- i mod 2) groups;
    let start = in_window fabric (1, max 1 (epochs / 2)) in
    add start (Partition_start groups);
    add (start + max 1 spec.partition_hold) Partition_end
  end;
  (* Drain overruns fire during the failover tail: pinned to the second
     half of the run so they collide with post-crash re-placements. The
     event names the pin's preferred home, never a NIC the plan kills;
     the failover controller may land the pin on another survivor. *)
  List.iter
    (fun (i, nic_rng) ->
      add (in_window nic_rng (epochs / 2, max (epochs / 2) (epochs - 2)))
        (Drain_overrun i))
    (pick_nics rng ~cls:"overrun" ~nics
       ~exclude:(crashed_nics !events)
       (min spec.overruns nics));
  (* Stable (epoch, insertion) order: sort is stable, so same-epoch
     events keep their class order — crashes first, then brownouts,
     partition, overruns — reversed back to insertion order first. *)
  List.stable_sort
    (fun (a, _) (b, _) -> compare a b)
    (List.rev !events)
