(* Tests for the accelerator substrate and virtualization types. *)

open Taichi_engine
open Taichi_accel
open Taichi_virt

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Ring -------------------------------------------------------------- *)

let pkt ?(core = 0) ?(tag = 0) () =
  Packet.create ~kind:Packet.Net_rx ~size:64 ~dst_core:core ~tag

let test_ring_fifo () =
  let r = Ring.create ~name:"r" () in
  let a = pkt () and b = pkt () in
  checkb "push a" true (Ring.push r a);
  checkb "push b" true (Ring.push r b);
  checki "length" 2 (Ring.length r);
  (match Ring.pop_burst r ~max:10 with
  | [ x; y ] ->
      checkb "fifo first" true (a == x);
      checkb "fifo second" true (b == y)
  | _ -> Alcotest.fail "expected two");
  checkb "empty" true (Ring.is_empty r)

let test_ring_burst_cap () =
  let r = Ring.create ~name:"r" () in
  for _ = 1 to 50 do
    ignore (Ring.push r (pkt ()))
  done;
  checki "burst capped" 32 (List.length (Ring.pop_burst r ~max:32));
  checki "rest" 18 (Ring.length r)

let test_ring_overflow_drops () =
  let r = Ring.create ~capacity:2 ~name:"r" () in
  checkb "1" true (Ring.push r (pkt ()));
  checkb "2" true (Ring.push r (pkt ()));
  checkb "3 dropped" false (Ring.push r (pkt ()));
  checki "drop count" 1 (Ring.drops r);
  checki "enqueued" 2 (Ring.total_enqueued r)

(* A fresh ring holds a 16-entry buffer, well under its 4,096-entry
   capacity. Pushing two and popping one at a time keeps the head
   moving, so the buffer is wrapped each time it doubles; FIFO order
   must survive every copy, and the ring must still drop at
   [capacity]. *)
let test_ring_grows_to_bound () =
  let r = Ring.create ~name:"r" () in
  Test_engine.check_footprint "fresh default ring" ~cap:64 r;
  let pkts = Array.init 8200 (fun tag -> pkt ~tag ()) in
  let pushed = ref 0 and popped = ref 0 in
  let push () =
    checkb "push accepted" true (Ring.push r pkts.(!pushed));
    incr pushed
  in
  let pop n =
    List.iter
      (fun p ->
        checkb "fifo across growth" true (p == pkts.(!popped));
        incr popped)
      (Ring.pop_burst r ~max:n)
  in
  while Ring.length r < 4095 do
    push ();
    push ();
    pop 1
  done;
  push ();
  checki "full" 4096 (Ring.length r);
  checkb "push 4097 dropped" false (Ring.push r pkts.(!pushed));
  checki "one drop" 1 (Ring.drops r);
  checki "capacity unchanged" 4096 (Ring.capacity r);
  while not (Ring.is_empty r) do
    pop 32
  done;
  checki "every push popped" !pushed !popped

(* --- State table --------------------------------------------------------- *)

let test_state_table () =
  let t = State_table.create ~cores:4 in
  checkb "default P" true (State_table.get t ~core:2 = State_table.P_state);
  State_table.set t ~core:2 State_table.V_state;
  checkb "set V" true (State_table.get t ~core:2 = State_table.V_state);
  checkb "others untouched" true (State_table.get t ~core:1 = State_table.P_state);
  checki "updates counted" 1 (State_table.updates t)

(* --- Pipeline -------------------------------------------------------------- *)

let test_pipeline_window_timing () =
  let sim = Sim.create () in
  let p = Pipeline.create sim in
  let ring = Ring.create ~name:"rx" () in
  Pipeline.attach_ring p ~core:0 ring;
  let delivered_at = ref (-1) in
  Pipeline.set_deliver_hook p (fun ~core:_ -> delivered_at := Sim.now sim);
  let pk = pkt () in
  Pipeline.submit p pk;
  Sim.run sim;
  checki "window = 3.2us" 3200 !delivered_at;
  checki "t_submit" 0 pk.Packet.t_submit;
  checki "t_ring" 3200 pk.Packet.t_ring;
  checki "in ring" 1 (Ring.length ring)

let test_pipeline_probe_hook_fires_first () =
  let sim = Sim.create () in
  let p = Pipeline.create sim in
  Pipeline.attach_ring p ~core:0 (Ring.create ~name:"rx" ());
  let probe_at = ref (-1) in
  Pipeline.set_probe_hook p (Some (fun _ -> probe_at := Sim.now sim));
  Pipeline.submit p (pkt ());
  Sim.run sim;
  checki "probe at detection time" 0 !probe_at

let test_pipeline_in_flight () =
  let sim = Sim.create () in
  let p = Pipeline.create sim in
  Pipeline.attach_ring p ~core:0 (Ring.create ~name:"rx" ());
  Pipeline.attach_ring p ~core:1 (Ring.create ~name:"rx1" ());
  Pipeline.submit p (pkt ~core:0 ());
  Pipeline.submit p (pkt ~core:0 ());
  Pipeline.submit p (pkt ~core:1 ());
  checki "core0 in flight" 2 (Pipeline.in_flight p ~core:0);
  checki "core1 in flight" 1 (Pipeline.in_flight p ~core:1);
  Sim.run sim;
  checki "drained" 0 (Pipeline.in_flight p ~core:0);
  checki "delivered" 3 (Pipeline.delivered p)

(* The pipeline delivers through one drain timer that it re-arms under
   reserved sequence numbers, yet it must be indistinguishable from the
   seed engine's one [Sim.at] per packet. Random programs submit packets
   to three capacity-4 rings (so some drop), schedule foreign events at
   a recent packet's due instant and 1 ns either side (half of them
   submit more packets when they fire), stop [Sim.run ~until] at random
   points and pop bursts. The reference runs the same program with each
   submit scheduling its own closure at submit + [Pipeline.window] that
   pushes the packet into its ring. The logs (every delivery, foreign
   firing and pop, with its time and every ring's length and drops), the
   sequence numbers issued and the final ring contents must be equal. *)
type delivery_log =
  | Delivered of int * int * (int * int) list (* time, core, rings *)
  | Fired of int * int * (int * int) list (* foreign id, time, rings *)
  | Popped of int * int * (int * int) list (* time, count, rings *)

let run_delivery_program ~pipelined ops =
  let sim = Sim.create () in
  let p = Pipeline.create sim in
  let window = Pipeline.window p in
  let rings =
    Array.init 3 (fun core ->
        let r = Ring.create ~capacity:4 ~name:(string_of_int core) () in
        Pipeline.attach_ring p ~core r;
        r)
  in
  let rings_now () =
    Array.to_list (Array.map (fun r -> (Ring.length r, Ring.drops r)) rings)
  in
  let log = ref [] in
  let note e = log := e :: !log in
  Pipeline.set_deliver_hook p (fun ~core ->
      note (Delivered (Sim.now sim, core, rings_now ())));
  let tags = ref 0 and dues = ref [] and foreign = ref 0 in
  let submit core =
    incr tags;
    let pk = pkt ~core ~tag:!tags () in
    let due = Sim.now sim + window in
    dues := due :: !dues;
    if pipelined then Pipeline.submit p pk
    else
      ignore
        (Sim.at sim due (fun () ->
             pk.Packet.t_ring <- Sim.now sim;
             if Ring.push rings.(core) pk then
               note (Delivered (Sim.now sim, core, rings_now ()))))
  in
  let schedule_foreign a b =
    let n = min 4 (List.length !dues) in
    if n > 0 then begin
      let time = List.nth !dues (a mod n) + (b mod 3) - 1 in
      if time >= Sim.now sim then begin
        let id = !foreign in
        incr foreign;
        ignore
          (Sim.at sim time (fun () ->
               note (Fired (id, Sim.now sim, rings_now ()));
               if b / 3 mod 2 = 0 then
                 for _ = 0 to b / 6 mod 3 do
                   submit ((a + b) mod 3)
                 done))
      end
    end
  in
  List.iter
    (fun (op, a, b) ->
      match op with
      | 0 ->
          for _ = 0 to b mod 3 do
            submit (a mod 3)
          done
      | 1 -> schedule_foreign a b
      | 2 -> Sim.run ~until:(Sim.now sim + (a mod 4000)) sim
      | _ ->
          let burst = Ring.pop_burst rings.(a mod 3) ~max:(1 + (b mod 4)) in
          note (Popped (Sim.now sim, List.length burst, rings_now ())))
    ops;
  Sim.run sim;
  let contents r =
    let l = ref [] in
    Ring.iter (fun pk -> l := (pk.Packet.tag, pk.Packet.t_ring) :: !l) r;
    List.rev !l
  in
  ( List.rev !log,
    Sim.events_scheduled sim,
    Array.map (fun r -> (contents r, Ring.drops r)) rings )

let prop_pipeline_delivery =
  QCheck.Test.make ~name:"pipeline delivery == one event per packet" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 0 120)
        (triple (int_bound 3) (int_bound 9999) small_int))
    (fun ops ->
      run_delivery_program ~pipelined:true ops
      = run_delivery_program ~pipelined:false ops)

(* --- Vcpu / Vmexit ------------------------------------------------------------ *)

let test_vcpu_exit_histogram () =
  let v = Vcpu.create ~vid:0 ~kcpu:12 ~initial_slice:(Time_ns.us 50) in
  Vcpu.record_exit v Vmexit.Timeslice_expired;
  Vcpu.record_exit v Vmexit.Timeslice_expired;
  Vcpu.record_exit v Vmexit.Hw_probe_irq;
  checki "timeslice" 2 (Vcpu.exit_count v Vmexit.Timeslice_expired);
  checki "probe" 1 (Vcpu.exit_count v Vmexit.Hw_probe_irq);
  checki "halt" 0 (Vcpu.exit_count v Vmexit.Halt);
  checki "total" 3 (Vcpu.total_exits v);
  (* [External] reasons count by text, not by physical string. *)
  Vcpu.record_exit v (Vmexit.External "nmi");
  Vcpu.record_exit v (Vmexit.External (String.concat "" [ "n"; "mi" ]));
  Vcpu.record_exit v (Vmexit.External "msr");
  checki "external nmi" 2 (Vcpu.exit_count v (Vmexit.External "nmi"));
  checki "external msr" 1 (Vcpu.exit_count v (Vmexit.External "msr"));
  checki "total with external" 6 (Vcpu.total_exits v)

(* [Vmexit.equal] against structural equality over every pair of
   reasons: [External] payloads compare by text. *)
let test_vmexit_equal () =
  let reasons =
    Vmexit.
      [
        Timeslice_expired;
        Hw_probe_irq;
        Ipi_send;
        Halt;
        External "nmi";
        External (String.concat "" [ "n"; "mi" ]);
        External "msr";
      ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          checkb
            (Vmexit.to_string a ^ " vs " ^ Vmexit.to_string b)
            (a = b) (Vmexit.equal a b))
        reasons)
    reasons

let test_vcpu_placement () =
  let v = Vcpu.create ~vid:1 ~kcpu:13 ~initial_slice:(Time_ns.us 50) in
  checkb "unplaced" false (Vcpu.is_placed v);
  v.Vcpu.placement <- Vcpu.On_core 3;
  checkb "placed" true (Vcpu.is_placed v);
  Alcotest.(check (option int)) "core" (Some 3) (Vcpu.core v)

let test_cost_model_defaults () =
  let c = Cost_model.default in
  checki "world switch 2us" (Time_ns.us 2) c.Cost_model.world_switch;
  checkb "npt tax positive" true (c.Cost_model.npt_tax > 0.0);
  let nt = Cost_model.no_tax c in
  Alcotest.(check (float 0.0)) "no tax" 0.0 nt.Cost_model.npt_tax

(* --- packet arena ---------------------------------------------------------- *)

(* Random alloc/free/scan programs against a packet arena. Tags are
   drawn from a fresh counter, so two live records aliasing the same slot
   would show as a tag mismatch; generations must stay frozen while a
   record is live and bump exactly once per free; [live_packets] must
   count the live records after every step. A [fixed] arena must raise
   {!Packet.Exhausted} precisely when every slot is live; a growable one
   must double instead, carrying every live record through the doubling
   with its tag, generation and liveness intact. *)
let run_arena_program ~fixed ~capacity ops =
  let arena = Packet.arena ~fixed ~capacity () in
  let live = ref [] in
  let next_tag = ref 0 in
  let intact (p, tag, gen) =
    p.Packet.tag = tag
    && Packet.is_live arena (Packet.index p)
    && Packet.generation arena (Packet.index p) = gen
  in
  let step (op, a) =
    match op with
    | 0 -> (
        incr next_tag;
        let tag = !next_tag in
        let before = Packet.arena_capacity arena in
        match
          Packet.alloc arena ~kind:Packet.Net_rx
            ~size:(64 + (a mod 100))
            ~dst_core:(a mod 4) ~tag
        with
        | p ->
            let n = List.length !live in
            live := (p, tag, Packet.generation arena (Packet.index p)) :: !live;
            let after = Packet.arena_capacity arena in
            if after = before then n < before
            else
              (not fixed) && n = before && after = 2 * before
              && List.for_all intact !live
        | exception Packet.Exhausted -> fixed && List.length !live = capacity)
    | 1 -> (
        match !live with
        | [] -> true
        | l ->
            let i = a mod List.length l in
            let ((p, _, gen) as entry) = List.nth l i in
            let ok = intact entry in
            Packet.free arena p;
            live := List.filteri (fun j _ -> j <> i) l;
            ok
            && (not (Packet.is_live arena (Packet.index p)))
            && Packet.generation arena (Packet.index p) = gen + 1)
    | _ -> List.for_all intact !live
  in
  List.for_all
    (fun op -> step op && Packet.live_packets arena = List.length !live)
    ops
  && List.for_all intact !live

let arena_programs =
  QCheck.(list_of_size (Gen.int_range 0 120) (pair (int_bound 2) small_int))

let prop_arena_roundtrip =
  QCheck.Test.make ~name:"packet arena alloc/free round-trip" ~count:300
    arena_programs
    (run_arena_program ~fixed:true ~capacity:8)

(* The same programs from capacity 1, so the arena doubles (up to 128
   slots) while records are live — as the pipeline's arena does from its
   64-slot start. *)
let prop_arena_growth =
  QCheck.Test.make ~name:"growable packet arena keeps live records" ~count:300
    arena_programs
    (run_arena_program ~fixed:false ~capacity:1)

let test_arena_misuse () =
  let arena = Packet.arena ~capacity:2 () in
  let other = Packet.arena ~capacity:2 () in
  let p = Packet.alloc arena ~kind:Packet.Net_rx ~size:64 ~dst_core:0 ~tag:1 in
  Packet.free arena p;
  (try
     Packet.free arena p;
     Alcotest.fail "double free accepted"
   with Invalid_argument _ -> ());
  let q = Packet.alloc arena ~kind:Packet.Net_rx ~size:64 ~dst_core:0 ~tag:2 in
  (try
     Packet.free other q;
     Alcotest.fail "free into a foreign arena accepted"
   with Invalid_argument _ -> ());
  Packet.free arena q;
  (* Heap packets pass through [free] as a no-op. *)
  Packet.free arena (Packet.create ~kind:Packet.Net_rx ~size:64 ~dst_core:0 ~tag:3);
  (* A default arena grows instead of raising. *)
  let growable = Packet.arena ~capacity:1 () in
  let a = Packet.alloc growable ~kind:Packet.Net_rx ~size:1 ~dst_core:0 ~tag:4 in
  let b = Packet.alloc growable ~kind:Packet.Net_rx ~size:1 ~dst_core:0 ~tag:5 in
  checki "both live after growth" 2 (Packet.live_packets growable);
  checkb "distinct slots" true (Packet.index a <> Packet.index b)

(* --- Allocation contracts ---------------------------------------------------- *)

(* A heap descriptor must show up in the probe (else a zero reading for
   the arena would prove nothing); an arena round-trip must not. *)
let test_packet_create_allocates () =
  let words =
    Test_engine.minor_words_per_op (fun i ->
        ignore
          (Sys.opaque_identity
             (Packet.create ~kind:Packet.Net_rx ~size:64 ~dst_core:0 ~tag:i)))
  in
  checkb "Packet.create allocates" true (words > 0.0)

let test_arena_roundtrip_no_alloc () =
  let arena = Packet.arena ~capacity:64 () in
  Test_engine.check_alloc_free "Packet.alloc + Packet.free"
    (Test_engine.minor_words_per_op (fun i ->
         Packet.free arena
           (Packet.alloc arena ~kind:Packet.Net_rx ~size:64 ~dst_core:0 ~tag:i)))

(* The steady-state packet path: alloc, submit, delivery into the ring
   through the pipeline's drain timer, pop and free. Once the event pool,
   the delivery FIFO and the per-core in-flight counts have grown, the
   cycle allocates nothing. *)
let test_pipeline_cycle_no_alloc () =
  let sim = Sim.create () in
  let p = Pipeline.create sim in
  let ring = Ring.create ~capacity:64 ~name:"cycle" () in
  Pipeline.attach_ring p ~core:0 ring;
  let arena = Pipeline.arena p in
  let buf = Array.make 1 Packet.dummy in
  Test_engine.check_alloc_free "Pipeline submit -> delivery -> free"
    (Test_engine.minor_words_per_op (fun i ->
         Pipeline.submit p
           (Packet.alloc arena ~kind:Packet.Net_rx ~size:64 ~dst_core:0 ~tag:i);
         Sim.run sim;
         for j = 0 to Ring.pop_burst_into ring buf ~max:1 - 1 do
           Packet.free arena buf.(j)
         done))

let suite =
  [
    ("ring FIFO", `Quick, test_ring_fifo);
    ("ring burst cap", `Quick, test_ring_burst_cap);
    ("ring overflow drops", `Quick, test_ring_overflow_drops);
    ("ring grows to its bound", `Quick, test_ring_grows_to_bound);
    ("state table", `Quick, test_state_table);
    ("pipeline window timing", `Quick, test_pipeline_window_timing);
    ("pipeline probe hook first", `Quick, test_pipeline_probe_hook_fires_first);
    ("pipeline in-flight tracking", `Quick, test_pipeline_in_flight);
    ("vcpu exit histogram", `Quick, test_vcpu_exit_histogram);
    ("vcpu placement", `Quick, test_vcpu_placement);
    ("vmexit equal", `Quick, test_vmexit_equal);
    ("cost model defaults", `Quick, test_cost_model_defaults);
    ("packet arena misuse", `Quick, test_arena_misuse);
    ("packet create allocates", `Quick, test_packet_create_allocates);
    ( "packet arena alloc/free allocates nothing",
      `Quick,
      test_arena_roundtrip_no_alloc );
    ( "pipeline packet cycle allocates nothing",
      `Quick,
      test_pipeline_cycle_no_alloc );
    QCheck_alcotest.to_alcotest prop_arena_roundtrip;
    QCheck_alcotest.to_alcotest prop_arena_growth;
    QCheck_alcotest.to_alcotest prop_pipeline_delivery;
  ]
