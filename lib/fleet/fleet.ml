(* A rack of simulated NICs with a deterministic cross-NIC message
   exchange at epoch boundaries.

   The fleet is generic over the per-NIC state ('nic): the engine here
   owns only membership (alive / browned / crashed), the fabric partition,
   the per-NIC outboxes and the epoch loop; everything that happens
   *inside* a NIC (its Sim, its System, its workload) is driven through
   the three callbacks of {!run}. This keeps the library free of any
   dependency above taichi_engine — the System-backed instantiation lives
   in taichi_platform.

   Determinism contract (the fleet half of DESIGN.md §11): a send on NIC
   i during epoch e is delivered on NIC j at the start of epoch e+1, and
   the inbox of every NIC is ordered by (src-nic, per-src sequence
   number). Because each NIC's epoch work touches only its own state and
   its own outbox, the per-epoch NIC phase can run on any number of
   worker domains — the exchange itself runs sequentially between epochs
   and routes outboxes in NIC order — so stdout, traces and counters are
   byte-identical at any [jobs] count. *)

open Taichi_engine

type msg = {
  src : int;
  dst : int;
  seq : int;  (** per-src monotonically increasing send sequence *)
  sent_epoch : int;
  payload : string;
}

type state = Alive | Browned | Crashed

let state_label = function
  | Alive -> "alive"
  | Browned -> "browned"
  | Crashed -> "crashed"

type 'nic t = {
  nics : 'nic array;
  counters : Counters.t array;
  emit : nic:int -> string -> unit;
  states : state array;
  (* Outboxes accumulate in reverse send order; [exchange] reverses. *)
  outboxes : msg list array;
  seqs : int array;
  inboxes : msg list array;
  (* Fabric partition: group id per NIC, or None when healed. Messages
     crossing a group boundary are dropped (and counted) at the exchange. *)
  mutable groups : int array option;
  mutable epoch : int;
}

let create ~nics ~counters ?(emit = fun ~nic:_ _ -> ()) () =
  let n = Array.length nics in
  if n = 0 then invalid_arg "Fleet.create: empty fleet";
  if Array.length counters <> n then
    invalid_arg "Fleet.create: one counter registry per NIC required";
  {
    nics;
    counters;
    emit;
    states = Array.make n Alive;
    outboxes = Array.make n [];
    seqs = Array.make n 0;
    inboxes = Array.make n [];
    groups = None;
    epoch = 0;
  }

let size t = Array.length t.nics
let nic t i = t.nics.(i)
let counters t = t.counters
let epoch t = t.epoch
let state t i = t.states.(i)
let alive t i = t.states.(i) <> Crashed

let survivors t =
  List.filter (alive t) (List.init (size t) (fun i -> i))

let count t i name = Counters.incr t.counters.(i) name

(* --- membership / fabric events (controller phase only) ------------------ *)

let crash t i =
  if alive t i then begin
    t.states.(i) <- Crashed;
    count t i "fleet.nic.crashes";
    t.emit ~nic:i (Printf.sprintf "nic crash nic=%d epoch=%d" i t.epoch)
  end

let brownout t i =
  if t.states.(i) = Alive then begin
    t.states.(i) <- Browned;
    count t i "fleet.nic.brownouts";
    t.emit ~nic:i (Printf.sprintf "nic brownout nic=%d epoch=%d" i t.epoch)
  end

let recover t i =
  if t.states.(i) = Browned then begin
    t.states.(i) <- Alive;
    count t i "fleet.nic.recoveries";
    t.emit ~nic:i (Printf.sprintf "nic recover nic=%d epoch=%d" i t.epoch)
  end

let partition t ~groups =
  if Array.length groups <> size t then
    invalid_arg "Fleet.partition: one group id per NIC required";
  t.groups <- Some (Array.copy groups);
  for i = 0 to size t - 1 do
    count t i "fleet.fabric.partitions"
  done;
  t.emit ~nic:0 (Printf.sprintf "fabric partition epoch=%d" t.epoch)

let heal t =
  if t.groups <> None then begin
    t.groups <- None;
    t.emit ~nic:0 (Printf.sprintf "fabric heal epoch=%d" t.epoch)
  end

(* --- exchange ------------------------------------------------------------ *)

let send t ~src ~dst payload =
  if dst < 0 || dst >= size t then invalid_arg "Fleet.send: bad dst";
  if alive t src then begin
    let seq = t.seqs.(src) in
    t.seqs.(src) <- seq + 1;
    t.outboxes.(src) <-
      { src; dst; seq; sent_epoch = t.epoch; payload } :: t.outboxes.(src);
    count t src "fleet.exchange.sent";
    t.emit ~nic:src
      (Printf.sprintf "send dst=%d seq=%d epoch=%d" dst seq t.epoch)
  end

(* Route every epoch-e outbox into the epoch-e+1 inboxes. Outboxes are
   visited in ascending src order and each is already seq-ordered once
   reversed, so appending preserves the canonical (src, seq) inbox order
   without a sort. Loss is decided here, src registry charged:
   - a crashed sender's whole outbox is dropped (the NIC died with it),
   - a message to a crashed NIC is dropped,
   - a message crossing a partition boundary is dropped. *)
let exchange t =
  let n = size t in
  let inboxes = Array.make n [] in
  for src = 0 to n - 1 do
    let msgs = List.rev t.outboxes.(src) in
    t.outboxes.(src) <- [];
    if t.states.(src) = Crashed then
      List.iter (fun _ -> count t src "fleet.exchange.lost_crash") msgs
    else
      List.iter
        (fun m ->
          if t.states.(m.dst) = Crashed then
            count t src "fleet.exchange.lost_down"
          else
            let crossing =
              match t.groups with
              | None -> false
              | Some g -> g.(m.src) <> g.(m.dst)
            in
            if crossing then count t src "fleet.exchange.lost_partition"
            else inboxes.(m.dst) <- m :: inboxes.(m.dst))
        msgs
  done;
  for dst = 0 to n - 1 do
    t.inboxes.(dst) <- List.rev inboxes.(dst)
  done

(* --- epoch loop ---------------------------------------------------------- *)

let run ?(jobs = 1) ?(control = fun ~epoch:_ -> ()) t ~epochs ~deliver
    ~advance =
  let n = size t in
  (* One NIC's epoch: drain its inbox (canonical order), then advance its
     universe. Touches only NIC-local state, so NICs may run on worker
     domains in any interleaving. *)
  let nic_epoch i =
    if alive t i then begin
      let inbox = t.inboxes.(i) in
      t.inboxes.(i) <- [];
      List.iter
        (fun m ->
          count t i "fleet.exchange.delivered";
          t.emit ~nic:i
            (Printf.sprintf "recv src=%d seq=%d epoch=%d sent=%d" m.src
               m.seq t.epoch m.sent_epoch);
          deliver ~nic:i m)
        inbox;
      advance ~nic:i ~epoch:t.epoch
    end
  in
  let parallel_phase () =
    if jobs <= 1 || n <= 1 then
      for i = 0 to n - 1 do
        nic_epoch i
      done
    else begin
      let next = Atomic.make 0 in
      let failure = Atomic.make None in
      let worker () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (try nic_epoch i
             with e ->
               (* Keep the first failure by NIC order so jobs never
                  changes which exception the caller sees. *)
               let bt = Printexc.get_raw_backtrace () in
               let rec record () =
                 let cur = Atomic.get failure in
                 let keep =
                   match cur with None -> true | Some (j, _, _) -> i < j
                 in
                 if keep && not (Atomic.compare_and_set failure cur
                                   (Some (i, e, bt)))
                 then record ()
               in
               record ());
            loop ()
          end
        in
        loop ()
      in
      let domains =
        List.init (min jobs n) (fun _ -> Domain.spawn worker)
      in
      List.iter Domain.join domains;
      match Atomic.get failure with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  in
  for e = 0 to epochs - 1 do
    t.epoch <- e;
    parallel_phase ();
    control ~epoch:e;
    exchange t
  done;
  t.epoch <- epochs
