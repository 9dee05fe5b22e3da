(* A bounded descriptor ring as a circular buffer: push and pop move
   two ints, no per-entry allocation (the seed used [Queue.t], one cons
   cell per push). The buffer starts at [min capacity 16] entries and,
   like the packet arena, doubles when a push finds it full, copying the
   residents in FIFO order, up to [capacity], which stays the drop
   bound. A data-plane ring rarely holds more than a few bursts, so its
   buffer stays a small fraction of [capacity]. Hot consumers drain with
   {!pop_burst_into} into a caller-owned scratch array; the
   list-returning {!pop_burst} survives for cold paths and tests. *)

type t = {
  name : string;
  capacity : int;
  mutable tenant : int;
  mutable buf : Packet.t array;
  mutable head : int;
  mutable len : int;
  mutable drops : int;
  mutable enqueued : int;
}

let create ?(capacity = 4096) ?(tenant = 0) ~name () =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  {
    name;
    capacity;
    tenant;
    buf = Array.make (Int.min capacity 16) Packet.dummy;
    head = 0;
    len = 0;
    drops = 0;
    enqueued = 0;
  }

let name t = t.name
let capacity t = t.capacity
let tenant t = t.tenant
let set_tenant t tenant = t.tenant <- tenant
let length t = t.len
let is_empty t = t.len = 0

let wrap t i =
  let size = Array.length t.buf in
  if i >= size then i - size else i

let iter f t =
  for k = 0 to t.len - 1 do
    f t.buf.(wrap t (t.head + k))
  done

let grow t =
  let buf = Array.make (Int.min t.capacity (2 * t.len)) Packet.dummy in
  for k = 0 to t.len - 1 do
    buf.(k) <- t.buf.(wrap t (t.head + k))
  done;
  t.buf <- buf;
  t.head <- 0

let push t pkt =
  if t.len >= t.capacity then begin
    t.drops <- t.drops + 1;
    false
  end
  else begin
    if t.len = Array.length t.buf then grow t;
    t.buf.(wrap t (t.head + t.len)) <- pkt;
    t.len <- t.len + 1;
    t.enqueued <- t.enqueued + 1;
    true
  end

let pop_burst_into t dst ~max =
  let n = Int.min (Int.min max (Array.length dst)) t.len in
  for k = 0 to n - 1 do
    dst.(k) <- t.buf.(wrap t (t.head + k))
  done;
  t.head <- wrap t (t.head + n);
  t.len <- t.len - n;
  n

let pop_burst t ~max =
  let n = Int.min max t.len in
  let rec take k acc =
    if k < 0 then acc else take (k - 1) (t.buf.(wrap t (t.head + k)) :: acc)
  in
  let pkts = take (n - 1) [] in
  t.head <- wrap t (t.head + n);
  t.len <- t.len - n;
  pkts

let drops t = t.drops
let total_enqueued t = t.enqueued
