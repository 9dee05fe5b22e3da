open Taichi_engine

type kind = Net_rx | Net_tx | Storage_read | Storage_write

type t = {
  mutable kind : kind;
  mutable size : int;
  mutable dst_core : int;
  mutable tag : int;
  mutable tenant : int;
  mutable t_submit : Time_ns.t;
  mutable t_ring : Time_ns.t;
  mutable t_done : Time_ns.t;
  idx : int;
}

let create ~kind ~size ~dst_core ~tag =
  {
    kind;
    size;
    dst_core;
    tag;
    tenant = 0;
    t_submit = 0;
    t_ring = 0;
    t_done = 0;
    idx = -1;
  }

let dummy =
  {
    kind = Net_rx;
    size = 0;
    dst_core = 0;
    tag = 0;
    tenant = 0;
    t_submit = 0;
    t_ring = 0;
    t_done = 0;
    idx = -1;
  }

(* --- arena ---------------------------------------------------------------- *)

(* Descriptor records live in a preallocated arena and recycle through a
   LIFO free list, mirroring the Sim event pool: a steady-state run
   allocates nothing on the per-packet path — [alloc] pops a slot,
   restamps the fields in place and hands the same record back out. The
   slot index is the packet's identity ([idx], immutable for the record's
   whole life); generations count recycles per slot so tests can prove no
   stale handle ever aliases a new allocation. [create] survives for cold
   paths and tests: a heap packet carries [idx = -1] and [free] ignores
   it.

   Ownership rule: whoever takes a packet out of circulation frees it —
   the data-plane service after [on_packets_done] returns, the pipeline
   when a full ring drops the delivery, the drain escalation when it
   discards a backlog. Completion callbacks must copy what they need;
   retaining the record past the callback reads recycled fields. *)

exception Exhausted

type arena = {
  mutable slots : t array;
  mutable gens : int array; (* recycles per slot, bumped on free *)
  mutable alive : bool array;
  mutable freelist : int array; (* LIFO stack of free slot indices *)
  mutable free_top : int;
  fixed : bool; (* fixed capacity: [alloc] on empty raises {!Exhausted} *)
}

let fresh_slot i =
  {
    kind = Net_rx;
    size = 0;
    dst_core = 0;
    tag = 0;
    tenant = 0;
    t_submit = 0;
    t_ring = 0;
    t_done = 0;
    idx = i;
  }

let arena ?(fixed = false) ~capacity () =
  if capacity < 1 then invalid_arg "Packet.arena: capacity must be >= 1";
  {
    slots = Array.init capacity fresh_slot;
    gens = Array.make capacity 0;
    alive = Array.make capacity false;
    (* top of stack = lowest index, so allocation order is predictable *)
    freelist = Array.init capacity (fun i -> capacity - 1 - i);
    free_top = capacity;
    fixed;
  }

let arena_capacity a = Array.length a.slots
let live_packets a = Array.length a.slots - a.free_top

let grow a =
  let cap = Array.length a.slots in
  let ncap = cap * 2 in
  let slots = Array.init ncap (fun i -> if i < cap then a.slots.(i) else fresh_slot i) in
  let gens = Array.make ncap 0 in
  Array.blit a.gens 0 gens 0 cap;
  let alive = Array.make ncap false in
  Array.blit a.alive 0 alive 0 cap;
  let freelist = Array.make ncap 0 in
  for k = 0 to cap - 1 do
    freelist.(k) <- ncap - 1 - k
  done;
  a.slots <- slots;
  a.gens <- gens;
  a.alive <- alive;
  a.freelist <- freelist;
  a.free_top <- cap

let alloc a ~kind ~size ~dst_core ~tag =
  if a.free_top = 0 then if a.fixed then raise Exhausted else grow a;
  a.free_top <- a.free_top - 1;
  let i = a.freelist.(a.free_top) in
  a.alive.(i) <- true;
  let p = a.slots.(i) in
  p.kind <- kind;
  p.size <- size;
  p.dst_core <- dst_core;
  p.tag <- tag;
  p.tenant <- 0;
  p.t_submit <- 0;
  p.t_ring <- 0;
  p.t_done <- 0;
  p

let free a p =
  if p.idx >= 0 then begin
    if p.idx >= Array.length a.slots || a.slots.(p.idx) != p then
      invalid_arg "Packet.free: packet does not belong to this arena";
    if not a.alive.(p.idx) then invalid_arg "Packet.free: double free";
    a.alive.(p.idx) <- false;
    a.gens.(p.idx) <- a.gens.(p.idx) + 1;
    a.freelist.(a.free_top) <- p.idx;
    a.free_top <- a.free_top + 1
  end

let index p = p.idx
let generation a i = a.gens.(i)
let is_live a i = a.alive.(i)
