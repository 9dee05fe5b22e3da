open Taichi_engine

type config = { preprocess : Time_ns.t; transfer : Time_ns.t }

let default_config = { preprocess = Time_ns.ns 2700; transfer = Time_ns.ns 500 }

(* Packet deliveries are batched: instead of one engine event (and one
   closure) per submitted packet, the pipeline keeps a FIFO of
   in-flight descriptors — due time, reserved engine sequence number,
   packet — in circular parallel arrays, and arms a single drain timer
   for the queue head. The hardware window is constant, so due times
   and sequence numbers are both monotone in submit order and the FIFO
   never needs sorting.

   Bit-exactness with the seed one-event-per-packet engine: each packet
   reserves, at submit, exactly the sequence number its dedicated event
   would have carried, and the drain only delivers the next packet
   inline when no foreign event orders before that packet's (due, seq);
   otherwise it re-arms the timer under the packet's own reserved seq
   and yields, letting the engine interleave the foreign event exactly
   where the per-packet engine would have. *)

type t = {
  sim : Sim.t;
  config : config;
  arena : Packet.arena;
      (* descriptor pool for everything submitted through this pipeline;
         the service frees after [on_packets_done], the drop and
         discard paths free inline. It starts at 64 records and
         doubles on demand: experiments need anywhere from under 64 to
         16,384 slots of ~14 words each, and a system should not pay
         for the largest up front *)
  (* by destination core, grown on demand *)
  mutable rings : Ring.t option array;
  mutable in_flight : int array;  (* submitted, not yet delivered *)
  mutable probe_hook : (Packet.t -> unit) option;
  mutable deliver_hook : core:int -> unit;
  mutable delivered : int;
  (* delivery FIFO (circular; grows by doubling; capacity power of 2) *)
  mutable q_due : int array;
  mutable q_seq : int array;
  mutable q_pkt : Packet.t array;
  mutable q_head : int;
  mutable q_len : int;
  (* true iff a drain timer is pending or a drain is in progress *)
  mutable armed : bool;
  mutable drain_cb : unit -> unit;
}

let config t = t.config
let arena t = t.arena
let window t = t.config.preprocess + t.config.transfer
let set_probe_hook t hook = t.probe_hook <- hook
let set_deliver_hook t hook = t.deliver_hook <- hook

(* Make [core] a valid index of [rings] and [in_flight]. *)
let cover t core =
  let n = Array.length t.in_flight in
  if core >= n then begin
    let m = Int.max (core + 1) (2 * n) in
    let rings = Array.make m None and in_flight = Array.make m 0 in
    Array.blit t.rings 0 rings 0 n;
    Array.blit t.in_flight 0 in_flight 0 n;
    t.rings <- rings;
    t.in_flight <- in_flight
  end

let attach_ring t ~core ring =
  cover t core;
  t.rings.(core) <- Some ring

let ring t ~core =
  if core < 0 || core >= Array.length t.rings then raise Not_found;
  match t.rings.(core) with Some r -> r | None -> raise Not_found

let in_flight t ~core =
  if core >= 0 && core < Array.length t.in_flight then t.in_flight.(core)
  else 0

(* --- delivery FIFO ------------------------------------------------------- *)

let enqueue t ~due ~seq pkt =
  let cap = Array.length t.q_due in
  if t.q_len = cap then begin
    (* The packet being enqueued doubles as the fill value, so the empty
       pipeline never needs a dummy descriptor. *)
    let ncap = if cap = 0 then 64 else cap * 2 in
    let ndue = Array.make ncap 0
    and nseq = Array.make ncap 0
    and npkt = Array.make ncap pkt in
    for i = 0 to t.q_len - 1 do
      let j = (t.q_head + i) land (cap - 1) in
      ndue.(i) <- t.q_due.(j);
      nseq.(i) <- t.q_seq.(j);
      npkt.(i) <- t.q_pkt.(j)
    done;
    t.q_due <- ndue;
    t.q_seq <- nseq;
    t.q_pkt <- npkt;
    t.q_head <- 0
  end;
  let cap = Array.length t.q_due in
  let i = (t.q_head + t.q_len) land (cap - 1) in
  t.q_due.(i) <- due;
  t.q_seq.(i) <- seq;
  t.q_pkt.(i) <- pkt;
  t.q_len <- t.q_len + 1

(* Deliver the queue head, then keep draining inline while the next
   packet is due at this same instant and nothing else wants to fire
   first. *)
let rec drain t =
  let mask = Array.length t.q_due - 1 in
  let h = t.q_head in
  let pkt = t.q_pkt.(h) in
  let core = pkt.Packet.dst_core in
  t.q_head <- (h + 1) land mask;
  t.q_len <- t.q_len - 1;
  t.in_flight.(core) <- t.in_flight.(core) - 1;
  pkt.Packet.t_ring <- Sim.now t.sim;
  let ring = ring t ~core in
  (* The destination ring's owner claims the packet: tenant identity is a
     property of where the I/O lands, stamped on the delivery path. *)
  pkt.Packet.tenant <- Ring.tenant ring;
  if Ring.push ring pkt then begin
    t.delivered <- t.delivered + 1;
    t.deliver_hook ~core
  end
  else
    (* A full ring drops the descriptor on the floor; its slot recycles
       immediately. *)
    Packet.free t.arena pkt;
  if t.q_len = 0 then t.armed <- false
  else begin
    let h = t.q_head in
    let due = t.q_due.(h) and seq = t.q_seq.(h) in
    if due > Sim.now t.sim then arm t ~due ~seq
    else if Sim.has_event_before t.sim ~time:due ~seq then arm t ~due ~seq
    else drain t
  end

and arm t ~due ~seq =
  t.armed <- true;
  Sim.at_reserved t.sim due ~seq t.drain_cb

let create ?(config = default_config) sim =
  let t =
    {
      sim;
      config;
      arena = Packet.arena ~capacity:64 ();
      rings = [||];
      in_flight = [||];
      probe_hook = None;
      deliver_hook = (fun ~core:_ -> ());
      delivered = 0;
      q_due = [||];
      q_seq = [||];
      q_pkt = [||];
      q_head = 0;
      q_len = 0;
      armed = false;
      drain_cb = (fun () -> ());
    }
  in
  (* One drain closure per pipeline, allocated here once — the per-packet
     path allocates none. *)
  t.drain_cb <- (fun () -> drain t);
  t

let submit t pkt =
  pkt.Packet.t_submit <- Sim.now t.sim;
  let core = pkt.Packet.dst_core in
  cover t core;
  t.in_flight.(core) <- t.in_flight.(core) + 1;
  (match t.probe_hook with Some hook -> hook pkt | None -> ());
  (* Reserved after the probe hook, matching the seed engine's sequence
     assignment order exactly. *)
  let seq = Sim.reserve_seq t.sim in
  let due = Sim.now t.sim + window t in
  enqueue t ~due ~seq pkt;
  if not t.armed then arm t ~due ~seq

let delivered t = t.delivered
