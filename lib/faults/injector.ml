open Taichi_engine
open Taichi_hw
open Taichi_accel

type profile = {
  pname : string;
  ipi_drop_p : float;
  ipi_delay_p : float;
  ipi_delay_max : Time_ns.t;
  boot_drop_p : float;
  boot_drop_max : int;
  lapic_loss_p : float;
  mirror_period : Time_ns.t;
  mirror_stall : Time_ns.t;
  mirror_corrupt_p : float;
  probe_suppress_p : float;
  probe_misfire_period : Time_ns.t;
  cp_hang_period : Time_ns.t;
  cp_hang_hold : Time_ns.t;
  dp_burst_period : Time_ns.t;
  dp_burst_size : int;
  churn_depart_period : Time_ns.t;
  churn_arrive_period : Time_ns.t;
  churn_overrun_period : Time_ns.t;
}

let none =
  {
    pname = "none";
    ipi_drop_p = 0.;
    ipi_delay_p = 0.;
    ipi_delay_max = Time_ns.zero;
    boot_drop_p = 0.;
    boot_drop_max = 0;
    lapic_loss_p = 0.;
    mirror_period = Time_ns.zero;
    mirror_stall = Time_ns.zero;
    mirror_corrupt_p = 0.;
    probe_suppress_p = 0.;
    probe_misfire_period = Time_ns.zero;
    cp_hang_period = Time_ns.zero;
    cp_hang_hold = Time_ns.zero;
    dp_burst_period = Time_ns.zero;
    dp_burst_size = 0;
    churn_depart_period = Time_ns.zero;
    churn_arrive_period = Time_ns.zero;
    churn_overrun_period = Time_ns.zero;
  }

let flaky =
  {
    pname = "flaky";
    ipi_drop_p = 0.02;
    ipi_delay_p = 0.05;
    ipi_delay_max = Time_ns.us 5;
    boot_drop_p = 0.25;
    boot_drop_max = 4;
    lapic_loss_p = 0.01;
    mirror_period = Time_ns.us 500;
    mirror_stall = Time_ns.us 100;
    mirror_corrupt_p = 0.3;
    probe_suppress_p = 0.05;
    probe_misfire_period = Time_ns.us 400;
    cp_hang_period = Time_ns.ms 2;
    cp_hang_hold = Time_ns.us 300;
    dp_burst_period = Time_ns.ms 1;
    dp_burst_size = 256;
    churn_depart_period = Time_ns.zero;
    churn_arrive_period = Time_ns.zero;
    churn_overrun_period = Time_ns.zero;
  }

let storm =
  {
    pname = "storm";
    ipi_drop_p = 0.15;
    ipi_delay_p = 0.2;
    ipi_delay_max = Time_ns.us 50;
    boot_drop_p = 0.5;
    boot_drop_max = 8;
    lapic_loss_p = 0.05;
    mirror_period = Time_ns.us 100;
    mirror_stall = Time_ns.us 300;
    mirror_corrupt_p = 0.6;
    probe_suppress_p = 0.2;
    probe_misfire_period = Time_ns.us 150;
    cp_hang_period = Time_ns.us 600;
    cp_hang_hold = Time_ns.of_us_f 1500.;
    dp_burst_period = Time_ns.us 400;
    dp_burst_size = 512;
    churn_depart_period = Time_ns.zero;
    churn_arrive_period = Time_ns.zero;
    churn_overrun_period = Time_ns.zero;
  }

(* Churn chaos: moderate background faults (the flaky rates) with the
   three tenant-lifecycle classes armed — departures timed to land inside
   a CP storm, arrivals aimed at active governor rungs, and drains pinned
   past their window. The harness callbacks carry the tenant-side
   mechanics; the injector owns only the cadence and the receipts. *)
let churn =
  {
    flaky with
    pname = "churn";
    churn_depart_period = Time_ns.ms 4;
    churn_arrive_period = Time_ns.ms 3;
    churn_overrun_period = Time_ns.ms 10;
  }

type t = {
  machine : Machine.t;
  profile : profile;
  boot_vector : int;
  (* One independent stream per fault class (see .mli). *)
  ipi_rng : Rng.t;
  boot_rng : Rng.t;
  lapic_rng : Rng.t;
  mirror_rng : Rng.t;
  probe_rng : Rng.t;
  cp_rng : Rng.t;
  dp_rng : Rng.t;
  churn_depart_rng : Rng.t;
  churn_arrive_rng : Rng.t;
  churn_overrun_rng : Rng.t;
  mutable table : State_table.t option;
  mutable probe_misfire : (core:int -> unit) option;
  mutable cp_hang : (hold:Time_ns.t -> unit) option;
  mutable dp_burst : (size:int -> unit) option;
  mutable churn_depart : (unit -> unit) option;
  mutable churn_arrive : (unit -> unit) option;
  mutable churn_overrun : (unit -> unit) option;
  mutable boot_dropped : int;
  mutable until : Time_ns.t;
  mutable stopped : bool;
  h_boot_dropped : Counters.handle;
  h_probe_suppressed : Counters.handle;
  h_mirror_corruptions : Counters.handle;
  h_mirror_stalls : Counters.handle;
  h_probe_misfires : Counters.handle;
  h_cp_hangs : Counters.handle;
  h_dp_bursts : Counters.handle;
  h_churn_departs : Counters.handle;
  h_churn_arrivals : Counters.handle;
  h_churn_overruns : Counters.handle;
  h_lapic_lost : Counters.handle;
}

let sim t = Machine.sim t.machine
let counters t = Machine.counters t.machine

let tracef t fmt =
  Trace.emitf (Machine.trace t.machine)
    ~time:(Sim.now (sim t))
    ~category:Trace.Cat.fault fmt

let fabric_fault t ~dst ~vector =
  if t.stopped then Machine.Pass
  else if vector = t.boot_vector then
    (* Boot drops come out of a bounded budget so a retrying hotplug is
       guaranteed to converge — unbounded 50% loss could (rarely but
       measurably) outlast any finite retry schedule. *)
    if
      t.boot_dropped < t.profile.boot_drop_max
      && Rng.bernoulli t.boot_rng ~p:t.profile.boot_drop_p
    then begin
      t.boot_dropped <- t.boot_dropped + 1;
      Counters.incr_h (counters t) t.h_boot_dropped;
      Machine.Drop
    end
    else Machine.Pass
  else if Rng.bernoulli t.ipi_rng ~p:t.profile.ipi_drop_p then Machine.Drop
  else if Rng.bernoulli t.ipi_rng ~p:t.profile.ipi_delay_p then
    Machine.Delay
      (Rng.int_range t.ipi_rng ~lo:1 ~hi:(max 1 t.profile.ipi_delay_max))
  else (ignore dst; Machine.Pass)

let create ?nic ~rng ~machine ~boot_vector profile =
  (* Fleet runs namespace every per-class stream by NIC id so identical
     profiles on different NICs draw decorrelated streams. Single-NIC
     plans ([?nic] absent) keep the PR 3 stream names bit-for-bit. *)
  let stream name =
    match nic with
    | None -> Rng.split rng name
    | Some i -> Rng.split rng (Printf.sprintf "nic%d.%s" i name)
  in
  let h = Counters.handle (Machine.counters machine) in
  let t =
    {
      machine;
      profile;
      boot_vector;
      ipi_rng = stream "fault.ipi";
      boot_rng = stream "fault.boot";
      lapic_rng = stream "fault.lapic";
      mirror_rng = stream "fault.mirror";
      probe_rng = stream "fault.probe";
      cp_rng = stream "fault.cp";
      dp_rng = stream "fault.dp";
      churn_depart_rng = stream "fault.churn.depart";
      churn_arrive_rng = stream "fault.churn.arrive";
      churn_overrun_rng = stream "fault.churn.overrun";
      table = None;
      probe_misfire = None;
      cp_hang = None;
      dp_burst = None;
      churn_depart = None;
      churn_arrive = None;
      churn_overrun = None;
      boot_dropped = 0;
      until = max_int;
      stopped = false;
      h_boot_dropped = h "fault.boot.dropped";
      h_probe_suppressed = h "fault.probe.suppressed";
      h_mirror_corruptions = h "fault.mirror.corruptions";
      h_mirror_stalls = h "fault.mirror.stalls";
      h_probe_misfires = h "fault.probe.misfires";
      h_cp_hangs = h "fault.cp.hangs";
      h_dp_bursts = h "fault.dp.bursts";
      h_churn_departs = h "fault.churn.departs";
      h_churn_arrivals = h "fault.churn.arrivals";
      h_churn_overruns = h "fault.churn.overruns";
      h_lapic_lost = h "fault.lapic.lost";
    }
  in
  Machine.set_fault_hook machine
    (Some (fun ~dst ~vector -> fabric_fault t ~dst ~vector));
  t

let profile t = t.profile
let attach_table t table = t.table <- Some table
let set_probe_misfire t f = t.probe_misfire <- Some f
let set_cp_hang t f = t.cp_hang <- Some f
let set_dp_burst t f = t.dp_burst <- Some f
let set_churn_depart t f = t.churn_depart <- Some f
let set_churn_arrive t f = t.churn_arrive <- Some f
let set_churn_overrun t f = t.churn_overrun <- Some f
let active t = not t.stopped

let probe_suppress t ~core =
  (not t.stopped)
  && t.profile.probe_suppress_p > 0.
  && Rng.bernoulli t.probe_rng ~p:t.profile.probe_suppress_p
  &&
  (Counters.incr_h (counters t) t.h_probe_suppressed;
   tracef t "probe suppress core=%d" core;
   true)

(* Each periodic stream reschedules itself with a per-class jitter draw so
   streams never phase-lock; the self-reschedule stops once the horizon
   passes, which keeps the post-[until] grace window fault-free. *)
let rec periodic t rng period f =
  if period > 0 then begin
    let jitter = Rng.int_range rng ~lo:0 ~hi:(max 1 (period / 4)) in
    ignore
      (Sim.after (sim t) (period + jitter) (fun () ->
           if (not t.stopped) && Sim.now (sim t) < t.until then begin
             f ();
             periodic t rng period f
           end))
  end

let mirror_fault t =
  match t.table with
  | None -> ()
  | Some table ->
      let core = Rng.int t.mirror_rng (Machine.physical_cores t.machine) in
      if Rng.bernoulli t.mirror_rng ~p:t.profile.mirror_corrupt_p then begin
        let wrong =
          match State_table.get table ~core with
          | State_table.P_state -> State_table.V_state
          | State_table.V_state -> State_table.P_state
        in
        State_table.force table ~core wrong;
        State_table.freeze table ~core;
        Counters.incr_h (counters t) t.h_mirror_corruptions;
        tracef t "mirror corrupt core=%d now=%s" core
          (State_table.state_name wrong)
      end
      else begin
        State_table.freeze table ~core;
        Counters.incr_h (counters t) t.h_mirror_stalls;
        tracef t "mirror stall core=%d" core
      end;
      (* Thaw later; a corrupted record stays wrong after the thaw until
         the scheduler writes it again or the resync detector forces it. *)
      ignore
        (Sim.after (sim t) t.profile.mirror_stall (fun () ->
             State_table.thaw table ~core))

let probe_misfire_fault t =
  match t.probe_misfire with
  | None -> ()
  | Some f ->
      let core = Rng.int t.probe_rng (Machine.physical_cores t.machine) in
      Counters.incr_h (counters t) t.h_probe_misfires;
      tracef t "probe misfire core=%d" core;
      f ~core

let cp_hang_fault t =
  match t.cp_hang with
  | None -> ()
  | Some f ->
      Counters.incr_h (counters t) t.h_cp_hangs;
      tracef t "cp hang hold=%d" t.profile.cp_hang_hold;
      f ~hold:t.profile.cp_hang_hold

let dp_burst_fault t =
  match t.dp_burst with
  | None -> ()
  | Some f ->
      Counters.incr_h (counters t) t.h_dp_bursts;
      tracef t "dp burst size=%d" t.profile.dp_burst_size;
      f ~size:t.profile.dp_burst_size

(* The three churn classes fire harness callbacks: the harness owns the
   lifecycle (which tenant to retire, what spec to admit, how to pin a
   drain open) — the injector owns only the cadence and the receipt. A
   departure rides with a CP storm when the profile also runs the cp_hang
   stream; the harness composes the two at the callback. *)
let churn_depart_fault t =
  match t.churn_depart with
  | None -> ()
  | Some f ->
      Counters.incr_h (counters t) t.h_churn_departs;
      tracef t "churn depart";
      f ()

let churn_arrive_fault t =
  match t.churn_arrive with
  | None -> ()
  | Some f ->
      Counters.incr_h (counters t) t.h_churn_arrivals;
      tracef t "churn arrive";
      f ()

let churn_overrun_fault t =
  match t.churn_overrun with
  | None -> ()
  | Some f ->
      Counters.incr_h (counters t) t.h_churn_overruns;
      tracef t "churn overrun";
      f ()

let stop t =
  t.stopped <- true;
  Machine.iter_lapics t.machine (fun lapic -> Lapic.set_loss_filter lapic None);
  (match t.table with
  | None -> ()
  | Some table ->
      for core = 0 to Machine.physical_cores t.machine - 1 do
        State_table.thaw table ~core
      done);
  tracef t "injector stopped"

let arm t ~until =
  t.until <- until;
  if t.profile.lapic_loss_p > 0. then
    Machine.iter_lapics t.machine (fun lapic ->
        Lapic.set_loss_filter lapic
          (Some
             (fun v ->
               (not t.stopped)
               && v <> t.boot_vector
               && Rng.bernoulli t.lapic_rng ~p:t.profile.lapic_loss_p
               &&
               (Counters.incr_h (counters t) t.h_lapic_lost;
                tracef t "lapic loss apic=%d vec=%d" (Lapic.apic_id lapic) v;
                true))));
  periodic t t.mirror_rng t.profile.mirror_period (fun () -> mirror_fault t);
  periodic t t.probe_rng t.profile.probe_misfire_period (fun () ->
      probe_misfire_fault t);
  periodic t t.cp_rng t.profile.cp_hang_period (fun () -> cp_hang_fault t);
  periodic t t.dp_rng t.profile.dp_burst_period (fun () -> dp_burst_fault t);
  periodic t t.churn_depart_rng t.profile.churn_depart_period (fun () ->
      churn_depart_fault t);
  periodic t t.churn_arrive_rng t.profile.churn_arrive_period (fun () ->
      churn_arrive_fault t);
  periodic t t.churn_overrun_rng t.profile.churn_overrun_period (fun () ->
      churn_overrun_fault t);
  ignore (Sim.at (sim t) until (fun () -> stop t))
