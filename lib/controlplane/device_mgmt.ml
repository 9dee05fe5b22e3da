open Taichi_engine
open Taichi_os

type params = {
  parse_cost : Time_ns.t;
  configure : Nonpreempt.t;
  dpcp_roundtrip : Time_ns.t;
  bookkeeping : Time_ns.t;
}

let default_params ~rng =
  {
    parse_cost = Time_ns.us 150;
    (* Device configuration is where the heavyweight non-preemptible
       routines live (driver register programming, table setup); the tail
       probability is much higher than for the generic monitor mix. *)
    configure =
      Nonpreempt.create
        ~params:{ Nonpreempt.default_params with p_long = 0.5 }
        rng;
    dpcp_roundtrip = Time_ns.us 30;
    bookkeeping = Time_ns.us 200;
  }

(* Devices rotate over the driver locks (one per emulated device class in
   production); concurrent initializations contend on them. *)
let pick_lock counter locks =
  let n = List.length locks in
  if n = 0 then None
  else begin
    let lock = List.nth locks (!counter mod n) in
    incr counter;
    Some lock
  end

let device_init_program ~rng:_ ~params ~locks =
  let counter = ref 0 in
  [
    Program.compute params.parse_cost;
    Program.Gen
      (fun () ->
        (* The configure duration is drawn when the device is reached, so
           concurrent tasks see independent routine lengths. *)
        let routine =
          Program.kernel_routine (Nonpreempt.sample params.configure)
        in
        match pick_lock counter locks with
        | Some lock -> Program.critical_section lock [ routine ]
        | None -> [ routine ]);
    Program.sleep params.dpcp_roundtrip;
    Program.kernel_routine ~preemptible:true params.bookkeeping;
  ]

let init_task ~rng ~params ~locks ~devices ~affinity ~name =
  let instrs =
    [ Program.Repeat (devices, device_init_program ~rng ~params ~locks) ]
  in
  Task.create ~affinity ~name ~step:(Program.to_step instrs) ()

let half d = Int.max 1 (d / 2)

let deinit_task ~rng:_ ~params ~locks ~devices ~affinity ~name =
  let counter = ref 0 in
  let per_device =
    [
      Program.compute (half params.parse_cost);
      Program.Gen
        (fun () ->
          let routine =
            Program.kernel_routine (half (Nonpreempt.sample params.configure))
          in
          match pick_lock counter locks with
          | Some lock -> Program.critical_section lock [ routine ]
          | None -> [ routine ]);
      Program.sleep params.dpcp_roundtrip;
      Program.kernel_routine ~preemptible:true (half params.bookkeeping);
    ]
  in
  let instrs = [ Program.Repeat (devices, per_device) ] in
  Task.create ~affinity ~name ~step:(Program.to_step instrs) ()
