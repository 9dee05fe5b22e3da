open Taichi_engine
open Taichi_accel
open Taichi_dataplane

(* Completion handlers keyed by request tag. Tags are issued
   sequentially, so the identity hash spreads them evenly over the
   buckets, and no lookup calls the polymorphic hash or compare. *)
module Tags = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (tag : int) = tag land max_int
end)

type t = {
  sim : Sim.t;
  pipeline : Pipeline.t;
  handlers : (Packet.t -> unit) Tags.t;
  mutable next_tag : int;
}

let conn_bit = Net_service.connection_tag_bit

let create sim pipeline ~services =
  let t = { sim; pipeline; handlers = Tags.create 4096; next_tag = 1 } in
  let route pkts n =
    for i = 0 to n - 1 do
      let pkt = pkts.(i) in
      let key = pkt.Packet.tag land lnot conn_bit in
      match Tags.find_opt t.handlers key with
      | Some f ->
          Tags.remove t.handlers key;
          f pkt
      | None -> ()
    done
  in
  List.iter
    (fun dp ->
      let hooks = Dp_service.hooks dp in
      let previous = hooks.Dp_service.on_packets_done in
      hooks.Dp_service.on_packets_done <-
        (fun pkts n ->
          previous pkts n;
          route pkts n))
    services;
  t

let sim t = t.sim

let submit t ~kind ~size ~core ?(conn_setup = false) ~on_done () =
  let tag = t.next_tag in
  t.next_tag <- t.next_tag + 1;
  Tags.replace t.handlers tag on_done;
  let full_tag = if conn_setup then tag lor conn_bit else tag in
  let pkt =
    Packet.alloc (Pipeline.arena t.pipeline) ~kind ~size ~dst_core:core
      ~tag:full_tag
  in
  Pipeline.submit t.pipeline pkt

let submit_background t ~kind ~size ~core =
  let pkt =
    Packet.alloc (Pipeline.arena t.pipeline) ~kind ~size ~dst_core:core ~tag:0
  in
  Pipeline.submit t.pipeline pkt

let outstanding t = Tags.length t.handlers
