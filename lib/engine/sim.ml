(* The event engine hot path: a preallocated slot pool (callback and
   generation/state arrays recycled through a free list) feeding the
   calendar queue ({!Timerq}), which links its wheel entries through
   arrays indexed by the same slots. Below the wheel's horizon a
   schedule allocates nothing of the engine's own (the callback is the
   caller's), and the handle returned to the caller is a single
   immediate int packing the slot index (low bits) with the slot's
   generation word (high bits). Fire order is strict (time, seq),
   identical to the seed binary-heap engine, which the test suite keeps
   as [Sim_legacy] and checks op-for-op with differential qcheck
   properties.

   Slot lifecycle: allocated by [at] or [at_reserved], freed when its
   queue entry is dequeued or compacted away (single ownership by the
   queue entry, which lets the queue link entries through their slots).
   A slot's [gens] word packs its generation in the high bits with a
   tombstone flag in bit 0: cancellation flips the flag (the entry
   stays queued until popped or compacted, mirroring the seed engine's
   lazy-cancel design and its exact compaction policy, so the
   pending/dead/compaction counters match the oracle everywhere), and
   freeing bumps the generation, so a stale handle (cancel/is_pending
   after the event fired and the slot was recycled) compares unequal
   and becomes a safe no-op instead of aliasing a newer event. *)

type t = {
  mutable clock : Time_ns.t;
  mutable seq : int;
  q : Timerq.t;
  (* event pool, indexed by slot *)
  mutable cbs : (unit -> unit) array;
  mutable gens : int array; (* generation lsl 1, bit 0 = tombstone *)
  mutable free : int array; (* stack of free slots *)
  mutable free_len : int;
  mutable live : int;
  mutable fired : int;
  mutable compactions : int;
}

(* A handle packs [gen lsl slot_bits lor slot]: 24 bits of slot index
   (the pool would need 16M concurrent live events to outgrow it —
   [grow_pool] guards the cap) and the rest of the word for the
   generation-with-tombstone-bit value of [gens.(slot)] at schedule
   time. Validity is the same generation-equality check the old handle
   record performed; a stale or cancelled handle simply compares
   unequal. *)
type handle = int

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let nop () = ()
let initial_pool = 1024

let create () =
  {
    clock = 0;
    seq = 0;
    q = Timerq.create ();
    cbs = Array.make initial_pool nop;
    gens = Array.make initial_pool 0;
    free = Array.init initial_pool (fun i -> initial_pool - 1 - i);
    free_len = initial_pool;
    live = 0;
    fired = 0;
    compactions = 0;
  }

let now sim = sim.clock

let grow_pool sim =
  let cap = Array.length sim.cbs in
  let ncap = cap * 2 in
  if ncap > slot_mask + 1 then failwith "Sim: event pool exceeds handle width";
  let ncbs = Array.make ncap nop in
  let ngens = Array.make ncap 0 in
  let nfree = Array.make ncap 0 in
  Array.blit sim.cbs 0 ncbs 0 cap;
  Array.blit sim.gens 0 ngens 0 cap;
  sim.cbs <- ncbs;
  sim.gens <- ngens;
  sim.free <- nfree;
  for i = 0 to cap - 1 do
    nfree.(i) <- ncap - 1 - i
  done;
  sim.free_len <- cap

let alloc_slot sim =
  if sim.free_len = 0 then grow_pool sim;
  let fl = sim.free_len - 1 in
  sim.free_len <- fl;
  sim.free.(fl)

(* From pending (even g) this yields g + 2; from a tombstone (g lor 1)
   it yields g + 2 as well: always even (pending) and strictly greater
   than every generation a live handle can hold. *)
let free_slot sim slot =
  sim.gens.(slot) <- (sim.gens.(slot) lor 1) + 1;
  sim.cbs.(slot) <- nop;
  sim.free.(sim.free_len) <- slot;
  sim.free_len <- sim.free_len + 1

let schedule sim time seq callback =
  let slot = alloc_slot sim in
  sim.cbs.(slot) <- callback;
  Timerq.push sim.q ~time ~seq slot;
  sim.live <- sim.live + 1;
  slot

let at sim time callback =
  if time < sim.clock then
    invalid_arg
      (Printf.sprintf "Sim.at: time %d is before now %d" time sim.clock);
  let seq = sim.seq in
  sim.seq <- seq + 1;
  let slot = schedule sim time seq callback in
  (sim.gens.(slot) lsl slot_bits) lor slot

let after sim delay callback =
  if delay < 0 then invalid_arg "Sim.after: negative delay";
  at sim (sim.clock + delay) callback

let immediate sim callback = at sim sim.clock callback

(* Reserved-sequence scheduling: the accelerator pipeline's delivery
   batcher claims sequence numbers at submit time (one per packet, in
   exactly the order the seed engine would have assigned them) but arms
   a single timer for the whole delivery queue, re-scheduling it under
   an already-claimed seq whenever a foreign same-instant event must
   interleave. This is what keeps batched delivery bit-identical to
   one-event-per-packet. *)

let reserve_seq sim =
  let s = sim.seq in
  sim.seq <- s + 1;
  s

let at_reserved sim time ~seq callback =
  if time < sim.clock then
    invalid_arg
      (Printf.sprintf "Sim.at_reserved: time %d is before now %d" time
         sim.clock);
  if seq >= sim.seq then invalid_arg "Sim.at_reserved: seq was never reserved";
  ignore (schedule sim time seq callback)

(* Cancelled events are tombstones: they stay queued and are dropped
   lazily on pop. [dead_events] is how many tombstones the queue
   currently holds, so the count (and therefore the compaction policy
   below) stays op-for-op identical to the seed engine. Once tombstones
   outnumber live events ~2:1 (and are past a floor that keeps tiny sims
   from churning) the queue is compacted in place. *)
let dead_events sim = Timerq.length sim.q - sim.live

let compact_floor = 64

let maybe_compact sim =
  let dead = dead_events sim in
  if dead > compact_floor && dead > 2 * sim.live then begin
    Timerq.compact sim.q ~keep:(fun slot ->
        if sim.gens.(slot) land 1 = 0 then true
        else begin
          free_slot sim slot;
          false
        end);
    sim.compactions <- sim.compactions + 1
  end

let cancel sim h =
  let slot = h land slot_mask in
  let hgen = h lsr slot_bits in
  if sim.gens.(slot) = hgen then begin
    sim.gens.(slot) <- hgen lor 1;
    sim.live <- sim.live - 1;
    maybe_compact sim
  end

let is_pending sim h = sim.gens.(h land slot_mask) = h lsr slot_bits

(* Locate the earliest live event, dropping tombstone heads exactly
   when the seed engine's pop would have dropped them, which keeps
   [dead_events] (and so the compaction trigger) bit-identical. *)
let rec live_head sim =
  Timerq.find_next sim.q
  &&
  let slot = Timerq.next_slot sim.q in
  if sim.gens.(slot) land 1 = 0 then true
  else begin
    Timerq.drop_next sim.q;
    free_slot sim slot;
    live_head sim
  end

(* Fire the head. Precondition: [live_head] just returned true. *)
let fire_head sim =
  let time = Timerq.next_time sim.q in
  let slot = Timerq.next_slot sim.q in
  Timerq.drop_next sim.q;
  sim.clock <- time;
  Timerq.advance sim.q ~now:time;
  let cb = sim.cbs.(slot) in
  free_slot sim slot;
  sim.live <- sim.live - 1;
  sim.fired <- sim.fired + 1;
  cb ()

let step sim =
  if live_head sim then begin
    fire_head sim;
    true
  end
  else false

let run ?until sim =
  match until with
  | None ->
      while live_head sim do
        fire_head sim
      done
  | Some limit ->
      while live_head sim && Timerq.next_time sim.q <= limit do
        fire_head sim
      done;
      if sim.clock < limit then begin
        sim.clock <- limit;
        Timerq.advance sim.q ~now:limit
      end

let has_event_before sim ~time ~seq =
  live_head sim
  &&
  let t = Timerq.next_time sim.q in
  t < time || (t = time && Timerq.next_seq sim.q < seq)

let pending_events sim = sim.live
let events_processed sim = sim.fired
let events_scheduled sim = sim.seq
let compactions sim = sim.compactions
