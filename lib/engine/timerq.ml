(* A calendar timer queue: a ring of 2^wheel_bits buckets, each covering
   2^slot_bits ns, backed by the binary heap ({!Pheap}) as an overflow
   tier for timers beyond the wheel horizon (~2.1 ms). The dominant
   near-future timer pattern (slice timers, hardware windows, poll
   periods) lands in the wheel at O(1) amortized cost on cache-friendly
   int arrays; the rare far-future timer (watchdogs, think times) pays
   the heap's O(log n).

   Payloads are bare ints (pool slots owned by {!Sim}); inside a bucket
   an entry is a packed key int — (time - bucket_start) above bit 53,
   the insertion sequence number in the low 53 bits — so same-bucket
   ordering is one integer comparison and pushes allocate nothing. Key
   and payload sit adjacent in one stride-2 array (entry j is
   [buf.(2j), buf.(2j+1)]): a sift touches half the cache lines the
   parallel-arrays layout would.

   Footprint: a fresh queue holds only the ring's spine ([bufs], [blen]:
   4,096 words each) and the bitmap. A bucket's buffer is allocated the
   first time an entry lands in it (16 ints: 8 entries) and is kept for
   reuse, so the buffers grow bucket by bucket as the clock sweeps the
   ring: 4,096 x 17 words once every bucket has been used, more only
   where a bucket ever held more than 8 entries.

   Determinism contract: entries dequeue in strict (time, seq) order,
   identical to a global (key, seq) binary heap. The wheel cannot
   reorder: bucket index is a pure function of time, the packed key
   restores (offset, seq) lexicographic order within a bucket, and the
   overflow tier only holds entries strictly beyond every wheel entry.

   Aliasing invariant: every queued entry's absolute bucket lies in
   [base, base + n_buckets), so ring slot (bucket mod n_buckets) is
   unambiguous. [base] is the clock's bucket and is advanced only by
   {!advance} (the owner calls it whenever its clock moves); pushes are
   always at or after the clock, so they can never land behind [base]. *)

(* DESIGN §12 records the bucket occupancy, overflow share and geometry
   sweep behind these two constants. *)
let slot_bits = 9 (* bucket width: 512 ns *)
let wheel_bits = 12 (* 4096 buckets; horizon = 4096 * 512 ns ~ 2.1 ms *)
let n_buckets = 1 lsl wheel_bits
let bucket_mask = n_buckets - 1
let seq_bits = 53
let seq_mask = (1 lsl seq_bits) - 1

(* The packed in-bucket key [(offset lsl seq_bits) lor seq] orders
   correctly only while it stays a non-negative native int: offset <
   2^slot_bits and seq < 2^seq_bits must fit in Sys.int_size - 1 (62)
   bits. At 512 ns that holds with no spare bit; a wider bucket would
   wrap keys negative and silently reorder events, so refuse to load. *)
let () =
  if slot_bits + seq_bits > Sys.int_size - 1 then
    failwith "Timerq: slot_bits + seq_bits exceed the native int's value bits"

(* Occupancy bitmap: 32 buckets per l0 word, 32 l0 words per l1 bit, so
   finding the next nonempty bucket is a couple of word reads instead of
   a linear [blen] scan — what keeps the scan cheap when events are
   sparse (a 1 ms gap is ~2k buckets at 512 ns each). *)
let word_bits = 5 (* 32 bucket bits per l0 word *)
let word_mask = (1 lsl word_bits) - 1
let l0_words = n_buckets lsr word_bits
let l1_words = (l0_words lsr word_bits) + (if l0_words land word_mask = 0 then 0 else 1)

type t = {
  bufs : int array array; (* per-bucket stride-2 min-heaps: key, payload *)
  blen : int array; (* entries (pairs), not ints *)
  l0 : int array; (* bit per ring bucket: nonempty *)
  l1 : int array; (* bit per l0 word: nonzero *)
  mutable base : int; (* absolute bucket of the owner's clock *)
  mutable cursor : int; (* no nonempty bucket lies below this *)
  mutable wheel_count : int;
  mutable next_in_wheel : bool; (* where find_next located the minimum *)
  overflow : int Pheap.t;
}

let create () =
  {
    bufs = Array.make n_buckets [||];
    blen = Array.make n_buckets 0;
    l0 = Array.make l0_words 0;
    l1 = Array.make l1_words 0;
    base = 0;
    cursor = 0;
    wheel_count = 0;
    next_in_wheel = true;
    overflow = Pheap.create ();
  }

let length t = t.wheel_count + Pheap.length t.overflow
let is_empty t = length t = 0

(* --- occupancy bitmap ----------------------------------------------------- *)

(* Count-trailing-zeros for a nonzero value whose lowest set bit is below
   2^36: isolate the bit, then use that powers of two are distinct mod 37
   (2 is a primitive root of the prime 37). *)
let ctz_table =
  let t = Array.make 37 0 in
  for i = 0 to 35 do
    t.((1 lsl i) mod 37) <- i
  done;
  t

let ctz x = ctz_table.((x land -x) mod 37)

let mark_nonempty t s =
  let w = s lsr word_bits in
  t.l0.(w) <- t.l0.(w) lor (1 lsl (s land word_mask));
  t.l1.(w lsr word_bits) <-
    t.l1.(w lsr word_bits) lor (1 lsl (w land word_mask))

let mark_empty t s =
  let w = s lsr word_bits in
  let v = t.l0.(w) land lnot (1 lsl (s land word_mask)) in
  t.l0.(w) <- v;
  if v = 0 then
    t.l1.(w lsr word_bits) <-
      t.l1.(w lsr word_bits) land lnot (1 lsl (w land word_mask))

(* Ring index of the first nonempty bucket at or after ring index [cr],
   searching circularly. Caller guarantees the wheel is nonempty. *)
let next_nonempty t cr =
  let w0 = cr lsr word_bits in
  let m = t.l0.(w0) lsr (cr land word_mask) in
  if m <> 0 then cr + ctz m
  else begin
    (* No bucket in the rest of this word: jump via l1 to the next l0
       word with a set bit, circularly. *)
    let u0 = w0 lsr word_bits in
    (* Note: OCaml's shift operators are right-associative, so the outer
       [lsr 1] (strictly-after words only) needs the parens. *)
    let mu = (t.l1.(u0) lsr (w0 land word_mask)) lsr 1 in
    let w =
      if mu <> 0 then (w0 + 1 + ctz mu) land (l0_words - 1)
      else begin
        let u = ref (if u0 + 1 = l1_words then 0 else u0 + 1) in
        while t.l1.(!u) = 0 do
          u := if !u + 1 = l1_words then 0 else !u + 1
        done;
        (!u lsl word_bits) + ctz t.l1.(!u)
      end
    in
    (w lsl word_bits) + ctz t.l0.(w)
  end

(* --- per-bucket min-heaps on packed ints -------------------------------- *)

(* Both sifts annotate [buf]: left generic, each comparison would be a
   [caml_lessthan] call and each store a [caml_modify] barrier. *)
let bucket_sift_up (buf : int array) i0 =
  let i = ref i0 in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if buf.(2 * !i) < buf.(2 * p) then begin
      let k = buf.(2 * p) and s = buf.((2 * p) + 1) in
      buf.(2 * p) <- buf.(2 * !i);
      buf.((2 * p) + 1) <- buf.((2 * !i) + 1);
      buf.(2 * !i) <- k;
      buf.((2 * !i) + 1) <- s;
      i := p
    end
    else continue := false
  done

let bucket_sift_down (buf : int array) len start =
  let i = ref start in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let m = ref !i in
    if l < len && buf.(2 * l) < buf.(2 * !m) then m := l;
    if r < len && buf.(2 * r) < buf.(2 * !m) then m := r;
    if !m <> !i then begin
      let k = buf.(2 * !m) and s = buf.((2 * !m) + 1) in
      buf.(2 * !m) <- buf.(2 * !i);
      buf.((2 * !m) + 1) <- buf.((2 * !i) + 1);
      buf.(2 * !i) <- k;
      buf.((2 * !i) + 1) <- s;
      i := !m
    end
    else continue := false
  done

let wheel_push t b ~time ~seq slot =
  let s = b land bucket_mask in
  let len = t.blen.(s) in
  let buf =
    let buf = t.bufs.(s) in
    if 2 * len = Array.length buf then begin
      let ncap = if len = 0 then 16 else 4 * len in
      let nb = Array.make ncap 0 in
      Array.blit buf 0 nb 0 (2 * len);
      t.bufs.(s) <- nb;
      nb
    end
    else buf
  in
  let packed = ((time - (b lsl slot_bits)) lsl seq_bits) lor seq in
  buf.(2 * len) <- packed;
  buf.((2 * len) + 1) <- slot;
  t.blen.(s) <- len + 1;
  if len = 0 then mark_nonempty t s;
  bucket_sift_up buf len;
  t.wheel_count <- t.wheel_count + 1;
  if b < t.cursor then t.cursor <- b

let push t ~time ~seq slot =
  if seq land seq_mask <> seq then
    invalid_arg "Timerq.push: seq out of packable range";
  let b = time lsr slot_bits in
  if b - t.base < n_buckets then wheel_push t b ~time ~seq slot
  else Pheap.push t.overflow ~key:time ~seq slot

(* --- clock advance and overflow drain ----------------------------------- *)

let advance t ~now =
  let nb = now lsr slot_bits in
  if nb > t.base then begin
    t.base <- nb;
    if t.cursor < nb then t.cursor <- nb;
    (* The horizon moved: pull every overflow timer that now fits. The
       drained buckets are exactly the ring slots just vacated behind
       the new base, so the aliasing invariant is preserved. *)
    let horizon = (nb + n_buckets) lsl slot_bits in
    while (not (Pheap.is_empty t.overflow)) && Pheap.top_key t.overflow < horizon
    do
      let time = Pheap.top_key t.overflow in
      let seq = Pheap.top_seq t.overflow in
      let slot = Pheap.top_value t.overflow in
      Pheap.drop t.overflow;
      wheel_push t (time lsr slot_bits) ~time ~seq slot
    done
  end

(* --- minimum access ------------------------------------------------------ *)

(* Wheel entries are < base + horizon, overflow entries are >= it, so the
   wheel always wins when nonempty. The cursor persists across calls:
   repeated peeks are O(1), and total scan work over a run is bounded by
   elapsed-time / bucket-width, independent of event count. *)
let find_next t =
  if t.wheel_count > 0 then begin
    let cr = t.cursor land bucket_mask in
    if t.blen.(cr) = 0 then begin
      let r = next_nonempty t cr in
      t.cursor <- t.cursor + ((r - cr) land bucket_mask)
    end;
    t.next_in_wheel <- true;
    true
  end
  else if not (Pheap.is_empty t.overflow) then begin
    t.next_in_wheel <- false;
    true
  end
  else false

(* The next_* accessors and [drop_next] assume the last [find_next]
   returned true and nothing was pushed, dropped or advanced since. *)

let next_time t =
  if t.next_in_wheel then
    (t.cursor lsl slot_bits) + (t.bufs.(t.cursor land bucket_mask).(0) lsr seq_bits)
  else Pheap.top_key t.overflow

let next_seq t =
  if t.next_in_wheel then t.bufs.(t.cursor land bucket_mask).(0) land seq_mask
  else Pheap.top_seq t.overflow

let next_slot t =
  if t.next_in_wheel then t.bufs.(t.cursor land bucket_mask).(1)
  else Pheap.top_value t.overflow

let drop_next t =
  if t.next_in_wheel then begin
    let s = t.cursor land bucket_mask in
    let buf = t.bufs.(s) in
    let len = t.blen.(s) - 1 in
    t.blen.(s) <- len;
    if len > 0 then begin
      buf.(0) <- buf.(2 * len);
      buf.(1) <- buf.((2 * len) + 1);
      bucket_sift_down buf len 0
    end
    else mark_empty t s;
    t.wheel_count <- t.wheel_count - 1
  end
  else Pheap.drop t.overflow

(* --- observers ------------------------------------------------------------- *)

(* Valid under the same precondition as the next_* accessors. *)
let head_in_wheel t = t.next_in_wheel
let head_bucket_len t = t.blen.(t.cursor land bucket_mask)

(* --- tombstone compaction ------------------------------------------------ *)

let compact_bucket t ~keep s =
  let len = t.blen.(s) in
  let buf = t.bufs.(s) in
  let j = ref 0 in
  for i = 0 to len - 1 do
    if keep buf.((2 * i) + 1) then begin
      buf.(2 * !j) <- buf.(2 * i);
      buf.((2 * !j) + 1) <- buf.((2 * i) + 1);
      incr j
    end
  done;
  t.wheel_count <- t.wheel_count - (len - !j);
  t.blen.(s) <- !j;
  if !j = 0 then mark_empty t s;
  (* Floyd heapify restores the per-bucket invariant in O(len). *)
  for i = (!j / 2) - 1 downto 0 do
    bucket_sift_down buf !j i
  done

(* Only occupied buckets are visited, found through the [l0] words in
   ascending ring order — the order [keep] sees (and frees) slots in
   matches a full scan, so the cost scales with occupancy, not with the
   4,096-bucket ring. Each word is read before its buckets are
   compacted, since emptying one clears its bit. *)
let compact t ~keep =
  for w = 0 to l0_words - 1 do
    let m = ref t.l0.(w) in
    while !m <> 0 do
      compact_bucket t ~keep ((w lsl word_bits) + ctz !m);
      m := !m land (!m - 1)
    done
  done;
  Pheap.compact t.overflow ~keep
