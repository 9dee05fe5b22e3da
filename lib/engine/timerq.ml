(* A calendar timer queue: a ring of 2^wheel_bits buckets, each covering
   2^slot_bits ns, backed by the binary heap ({!Pheap}) as an overflow
   tier for timers beyond the wheel horizon (~2.1 ms). The dominant
   near-future timer pattern (slice timers, hardware windows, poll
   periods) lands in the wheel at O(1) cost on int arrays; the rare
   far-future timer (watchdogs, think times) pays the heap's O(log n).

   Payloads are bare ints: pool slots owned by {!Sim}, each queued at
   most once at a time. A bucket is a singly linked list threaded
   through three slot-indexed arrays ([times], [seqs], [next]), so an
   entry lives in its slot's cells and no bucket owns a buffer. The
   queue grows the three arrays to cover the largest slot it is handed.

   Only the bucket the cursor has reached is kept in (time, seq) order:
   a push into any other bucket prepends in O(1), and [find_next] sorts
   a bucket once, with a bottom-up merge sort over the links, when the
   cursor first lands on it. A push into that sorted bucket is an
   ordered insert, so a dense bucket pays one sort, not an O(k) insert
   per push.

   Footprint: a fresh queue holds the ring's heads (4,096 words) and
   the bitmap; the slot arrays grow with the owner's pool, three words
   per slot.

   Determinism contract: entries dequeue in strict (time, seq) order,
   identical to a global (time, seq) binary heap. The wheel cannot
   reorder: bucket index is a pure function of time, the head bucket is
   sorted on (time, seq) before its first entry is read, and the
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

(* Occupancy bitmap: 32 buckets per l0 word, 32 l0 words per l1 bit, so
   finding the next nonempty bucket is a couple of word reads instead of
   a linear scan of the heads — what keeps the scan cheap when events
   are sparse (a 1 ms gap is ~2k buckets at 512 ns each). *)
let word_bits = 5 (* 32 bucket bits per l0 word *)
let word_mask = (1 lsl word_bits) - 1
let l0_words = n_buckets lsr word_bits
let l1_words = (l0_words lsr word_bits) + (if l0_words land word_mask = 0 then 0 else 1)

type t = {
  heads : int array; (* first slot of each ring bucket's list; -1: empty *)
  l0 : int array; (* bit per ring bucket: nonempty *)
  l1 : int array; (* bit per l0 word: nonzero *)
  (* per slot, valid while the slot is queued in the wheel *)
  mutable times : int array;
  mutable seqs : int array;
  mutable next : int array; (* next slot in the same bucket; -1 ends it *)
  mutable base : int; (* absolute bucket of the owner's clock *)
  mutable cursor : int; (* no nonempty bucket lies below this *)
  mutable sorted : int; (* absolute bucket whose list is in order; -1: none *)
  mutable wheel_count : int;
  mutable next_in_wheel : bool; (* where find_next located the minimum *)
  overflow : int Pheap.t;
}

let create () =
  {
    heads = Array.make n_buckets (-1);
    l0 = Array.make l0_words 0;
    l1 = Array.make l1_words 0;
    times = [||];
    seqs = [||];
    next = [||];
    base = 0;
    cursor = 0;
    sorted = -1;
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

(* --- bucket lists ------------------------------------------------------------ *)

(* Whether queued slot [a] orders strictly before queued slot [b]. *)
let[@inline] before t a b =
  let ta = t.times.(a) and tb = t.times.(b) in
  ta < tb || (ta = tb && t.seqs.(a) < t.seqs.(b))

let grow t slot =
  let cap = Int.max (slot + 1) (2 * Array.length t.next) in
  let extend (a : int array) =
    let na = Array.make cap 0 in
    Array.blit a 0 na 0 (Array.length a);
    na
  in
  t.times <- extend t.times;
  t.seqs <- extend t.seqs;
  t.next <- extend t.next

(* Link [slot] into the sorted list of ring bucket [s], after every
   entry that orders before it. *)
let insert_sorted t s slot =
  let h = t.heads.(s) in
  if before t slot h then begin
    t.next.(slot) <- h;
    t.heads.(s) <- slot
  end
  else begin
    let prev = ref h and cur = ref t.next.(h) in
    while !cur >= 0 && before t !cur slot do
      prev := !cur;
      cur := t.next.(!cur)
    done;
    t.next.(slot) <- !cur;
    t.next.(!prev) <- slot
  end

(* Bottom-up merge sort of ring bucket [s]'s list: each pass merges
   neighbouring runs of [width] entries into runs of twice that, until
   one pass makes a single merge. Only the links move; nothing is
   allocated. *)
let sort_bucket t s =
  let next = t.next in
  let list = ref t.heads.(s) in
  let width = ref 1 and merges = ref 2 in
  while !merges > 1 do
    let p = ref !list and tail = ref (-1) in
    merges := 0;
    while !p >= 0 do
      incr merges;
      let q = ref !p and psize = ref 0 in
      while !psize < !width && !q >= 0 do
        incr psize;
        q := next.(!q)
      done;
      let qsize = ref !width in
      while !psize > 0 || (!qsize > 0 && !q >= 0) do
        let e =
          if !psize = 0 || (!qsize > 0 && !q >= 0 && before t !q !p) then begin
            let e = !q in
            q := next.(e);
            decr qsize;
            e
          end
          else begin
            let e = !p in
            p := next.(e);
            decr psize;
            e
          end
        in
        if !tail < 0 then list := e else next.(!tail) <- e;
        tail := e
      done;
      p := !q
    done;
    next.(!tail) <- -1;
    width := 2 * !width
  done;
  t.heads.(s) <- !list

let wheel_push t b ~time ~seq slot =
  if slot >= Array.length t.next then grow t slot;
  t.times.(slot) <- time;
  t.seqs.(slot) <- seq;
  let s = b land bucket_mask in
  let h = t.heads.(s) in
  if h >= 0 && b = t.sorted then insert_sorted t s slot
  else begin
    t.next.(slot) <- h;
    t.heads.(s) <- slot;
    if h < 0 then mark_nonempty t s
  end;
  t.wheel_count <- t.wheel_count + 1;
  if b < t.cursor then t.cursor <- b

let push t ~time ~seq slot =
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
    if t.heads.(cr) < 0 then begin
      let r = next_nonempty t cr in
      t.cursor <- t.cursor + ((r - cr) land bucket_mask)
    end;
    (* The cursor's first visit sorts its bucket; one entry is in order. *)
    if t.sorted <> t.cursor then begin
      let s = t.cursor land bucket_mask in
      if t.next.(t.heads.(s)) >= 0 then sort_bucket t s;
      t.sorted <- t.cursor
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

let head t = t.heads.(t.cursor land bucket_mask)

let next_time t =
  if t.next_in_wheel then t.times.(head t) else Pheap.top_key t.overflow

let next_seq t =
  if t.next_in_wheel then t.seqs.(head t) else Pheap.top_seq t.overflow

let next_slot t = if t.next_in_wheel then head t else Pheap.top_value t.overflow

let drop_next t =
  if t.next_in_wheel then begin
    let s = t.cursor land bucket_mask in
    let h = t.next.(t.heads.(s)) in
    t.heads.(s) <- h;
    if h < 0 then mark_empty t s;
    t.wheel_count <- t.wheel_count - 1
  end
  else Pheap.drop t.overflow

(* --- observers ------------------------------------------------------------- *)

(* Valid under the same precondition as the next_* accessors. *)
let head_in_wheel t = t.next_in_wheel

let head_bucket_len t =
  let n = ref 0 and cur = ref (head t) in
  while !cur >= 0 do
    incr n;
    cur := t.next.(!cur)
  done;
  !n

(* --- tombstone compaction ------------------------------------------------ *)

(* Unlinking keeps the survivors' order, so a sorted bucket stays
   sorted. *)
let compact_bucket t ~keep s =
  let prev = ref (-1) and cur = ref t.heads.(s) in
  while !cur >= 0 do
    let nx = t.next.(!cur) in
    if keep !cur then begin
      if !prev < 0 then t.heads.(s) <- !cur else t.next.(!prev) <- !cur;
      prev := !cur
    end
    else t.wheel_count <- t.wheel_count - 1;
    cur := nx
  done;
  if !prev < 0 then begin
    t.heads.(s) <- -1;
    mark_empty t s
  end
  else t.next.(!prev) <- -1

(* Only occupied buckets are visited, found through the [l0] words in
   ascending ring order, so the cost scales with occupancy, not with the
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
