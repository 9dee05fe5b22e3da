(* A bounded descriptor ring as a preallocated circular buffer: push and
   pop move two ints, no per-entry allocation (the seed used [Queue.t],
   one cons cell per push). Hot consumers drain with {!pop_burst_into}
   into a caller-owned scratch array; the list-returning {!pop_burst}
   survives for cold paths and tests. *)

type t = {
  name : string;
  capacity : int;
  mutable tenant : int;
  buf : Packet.t array;
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
    buf = Array.make capacity Packet.dummy;
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

let wrap t i = if i >= t.capacity then i - t.capacity else i

let iter f t =
  for k = 0 to t.len - 1 do
    f t.buf.(wrap t (t.head + k))
  done

let push t pkt =
  if t.len >= t.capacity then begin
    t.drops <- t.drops + 1;
    false
  end
  else begin
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
