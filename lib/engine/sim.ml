(* The event engine hot path: a preallocated slot pool (callback and
   generation/state arrays recycled through a free list) feeding the
   calendar queue ({!Timerq}). Scheduling allocates nothing at all —
   no closures, no per-event heap entries on the wheel path, and the
   handle returned to the caller is a single immediate int packing the
   slot index (low bits) with the slot's generation word (high bits).
   Fire order is strict (time, seq), identical to the seed binary-heap
   engine, which the test suite keeps as [Sim_legacy] and checks
   op-for-op with differential qcheck properties.

   Slot lifecycle: allocated by [at], freed when its queue entry is
   dequeued or compacted away (single ownership by the queue entry).
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
  (* batched bucket dispatch: when the head bucket is dense, [run]/[step]
     lift it wholesale into this scratch (stride-2: packed key, slot;
     sorted ascending by key) and dispatch from the flat array. The batch
     persists across calls — a [run ~until] can stop mid-batch — so every
     head observation merges the batch front against the queue head. *)
  mutable batch : int array;
  mutable batch_len : int; (* entries drained (pairs) *)
  mutable batch_pos : int; (* next undispatched entry *)
  mutable batch_base : int; (* absolute time of the drained bucket *)
  mutable head_in_batch : bool; (* where the last live_head found the head *)
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
    batch = [||];
    batch_len = 0;
    batch_pos = 0;
    batch_base = 0;
    head_in_batch = false;
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
   currently holds — a drained-but-undispatched batch entry still counts
   as queued, so the count (and therefore the compaction policy below)
   stays op-for-op identical to the seed engine, which never drains.
   Once tombstones outnumber live events ~2:1 (and are past a floor that
   keeps tiny sims from churning) the queue is compacted in place. *)
let batch_remaining sim = sim.batch_len - sim.batch_pos
let dead_events sim = Timerq.length sim.q + batch_remaining sim - sim.live

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
    (* Sweep the undispatched batch remainder too: the seed engine's
       compaction would have reached these entries in its heap, so
       leaving them would skew [dead_events] against the oracle. The
       in-place filter preserves sorted order. *)
    if batch_remaining sim > 0 then begin
      let j = ref sim.batch_pos in
      for i = sim.batch_pos to sim.batch_len - 1 do
        let slot = sim.batch.((2 * i) + 1) in
        if sim.gens.(slot) land 1 = 0 then begin
          sim.batch.(2 * !j) <- sim.batch.(2 * i);
          sim.batch.((2 * !j) + 1) <- slot;
          incr j
        end
        else free_slot sim slot
      done;
      sim.batch_len <- !j
    end;
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

(* --- merged head (batch front vs queue head) ----------------------------- *)

let seq_mask = (1 lsl Timerq.seq_bits) - 1
let batch_head_key sim = sim.batch.(2 * sim.batch_pos)
let batch_head_slot sim = sim.batch.((2 * sim.batch_pos) + 1)

let batch_head_time sim =
  sim.batch_base + (batch_head_key sim lsr Timerq.seq_bits)

let batch_head_seq sim = batch_head_key sim land seq_mask

(* Locate the earliest live event across the batch remainder and the
   queue, dropping tombstone heads from whichever side holds them —
   exactly when the seed engine's pop would have dropped them, which
   keeps [dead_events] (and so the compaction trigger) bit-identical.
   Events during dispatch can order before the batch remainder (a
   same-instant push, or a reserved-seq timer re-armed under an older
   seq), so this is a true two-way merge, not a fast path. *)
let rec live_head sim =
  let have_q = Timerq.find_next sim.q in
  if sim.batch_pos < sim.batch_len
     && (not have_q
        ||
        let bt = batch_head_time sim in
        let qt = Timerq.next_time sim.q in
        bt < qt || (bt = qt && batch_head_seq sim < Timerq.next_seq sim.q))
  then begin
    let slot = batch_head_slot sim in
    if sim.gens.(slot) land 1 = 0 then begin
      sim.head_in_batch <- true;
      true
    end
    else begin
      sim.batch_pos <- sim.batch_pos + 1;
      free_slot sim slot;
      live_head sim
    end
  end
  else if have_q then begin
    let slot = Timerq.next_slot sim.q in
    if sim.gens.(slot) land 1 = 0 then begin
      sim.head_in_batch <- false;
      true
    end
    else begin
      Timerq.drop_next sim.q;
      free_slot sim slot;
      live_head sim
    end
  end
  else false

(* Head accessors, valid after [live_head] returned true. *)
let head_time sim =
  if sim.head_in_batch then batch_head_time sim else Timerq.next_time sim.q

let head_seq sim =
  if sim.head_in_batch then batch_head_seq sim else Timerq.next_seq sim.q

(* Fire the merged head. Precondition: [live_head] just returned true. *)
let fire_head sim =
  let time, slot =
    if sim.head_in_batch then begin
      let time = batch_head_time sim in
      let slot = batch_head_slot sim in
      sim.batch_pos <- sim.batch_pos + 1;
      (time, slot)
    end
    else begin
      let time = Timerq.next_time sim.q in
      let slot = Timerq.next_slot sim.q in
      Timerq.drop_next sim.q;
      (time, slot)
    end
  in
  sim.clock <- time;
  Timerq.advance sim.q ~now:time;
  let cb = sim.cbs.(slot) in
  free_slot sim slot;
  sim.live <- sim.live - 1;
  sim.fired <- sim.fired + 1;
  cb ()

(* --- batched bucket dispatch --------------------------------------------- *)

(* In-place quicksort of the stride-2 (key, payload) scratch by key
   ascending, insertion sort below a small cutoff. Keys are unique
   (distinct seqs), so there are no equal-pivot runs to worry about. *)
let sort_pairs a n =
  let swap i j =
    let k = a.(2 * i) and v = a.((2 * i) + 1) in
    a.(2 * i) <- a.(2 * j);
    a.((2 * i) + 1) <- a.((2 * j) + 1);
    a.(2 * j) <- k;
    a.((2 * j) + 1) <- v
  in
  let rec qsort lo hi =
    if hi - lo < 12 then
      for i = lo + 1 to hi do
        let k = a.(2 * i) and v = a.((2 * i) + 1) in
        let j = ref (i - 1) in
        while !j >= lo && a.(2 * !j) > k do
          a.(2 * (!j + 1)) <- a.(2 * !j);
          a.((2 * (!j + 1)) + 1) <- a.((2 * !j) + 1);
          decr j
        done;
        a.(2 * (!j + 1)) <- k;
        a.((2 * (!j + 1)) + 1) <- v
      done
    else begin
      let mid = lo + ((hi - lo) / 2) in
      (* median-of-three pivot, parked at [hi] *)
      if a.(2 * mid) < a.(2 * lo) then swap lo mid;
      if a.(2 * hi) < a.(2 * lo) then swap lo hi;
      if a.(2 * hi) < a.(2 * mid) then swap mid hi;
      let pivot = a.(2 * mid) in
      swap mid hi;
      let store = ref lo in
      for i = lo to hi - 1 do
        if a.(2 * i) < pivot then begin
          if i <> !store then swap i !store;
          incr store
        end
      done;
      swap !store hi;
      qsort lo (!store - 1);
      qsort (!store + 1) hi
    end
  in
  if n > 1 then qsort 0 (n - 1)

(* Batch only dense buckets: draining and sorting a near-empty bucket
   costs more than popping it. *)
let batch_threshold = 4

(* If the (live) head sits in a dense wheel bucket and no batch is
   pending, lift the bucket into the scratch. Precondition: [live_head]
   just returned true. *)
let maybe_drain sim =
  if (not sim.head_in_batch)
     && sim.batch_pos >= sim.batch_len
     && Timerq.head_in_wheel sim.q
     && Timerq.head_bucket_len sim.q >= batch_threshold
  then begin
    let len = Timerq.head_bucket_len sim.q in
    if 2 * len > Array.length sim.batch then
      sim.batch <- Array.make (2 * len * 2) 0;
    sim.batch_base <- Timerq.head_bucket_start sim.q;
    let n = Timerq.drain_bucket sim.q sim.batch in
    sort_pairs sim.batch n;
    sim.batch_len <- n;
    sim.batch_pos <- 0;
    (* the old queue head is now the batch front, still live *)
    sim.head_in_batch <- true
  end

let step sim =
  if live_head sim then begin
    maybe_drain sim;
    fire_head sim;
    true
  end
  else false

let run ?until sim =
  (match until with
  | None ->
      while live_head sim do
        maybe_drain sim;
        fire_head sim
      done
  | Some limit ->
      let continue = ref true in
      while !continue do
        if not (live_head sim) then continue := false
        else if head_time sim > limit then continue := false
        else begin
          maybe_drain sim;
          fire_head sim
        end
      done);
  match until with
  | Some limit when sim.clock < limit ->
      sim.clock <- limit;
      Timerq.advance sim.q ~now:limit
  | _ -> ()

let next_event sim =
  if live_head sim then Some (head_time sim, head_seq sim) else None

let has_event_before sim ~time ~seq =
  live_head sim
  &&
  let t = head_time sim in
  t < time || (t = time && head_seq sim < seq)

let pending_events sim = sim.live
let events_processed sim = sim.fired
let events_scheduled sim = sim.seq
let compactions sim = sim.compactions
