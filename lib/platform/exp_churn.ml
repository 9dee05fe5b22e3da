open Taichi_engine
open Taichi_hw
open Taichi_os
open Taichi_metrics
open Taichi_core
open Taichi_faults
open Taichi_dataplane
open Exp_common

(* Tenant churn under fire: the live admit/retire lifecycle exercised as
   an experiment. The grid spans churn profiles:

   - {b steady}: arrival waves and a departure under saturation — every
     drain must complete (gracefully for quiet tenants, forced for a
     tenant retired mid-storm), victims keep their p99 contracts, and
     the vCPU/service pools are whole again afterwards.
   - {b flap}: rapid admit/retire thrash and a pool-exhaustion refusal
     that is retried with capped backoff until a departure frees the
     capacity — no abandoned admissions, dense never-reused ids.
   - {b chaos}: the churn fault profile (departures mid-CP-storm,
     arrivals into active governor rungs, drain-window overruns) on top
     of the flaky background faults; structural oracles only.

   Every cell additionally relies on the [drain-audit] Core_state
   invariant (via the with_system audit): a retired tenant must leave
   zero orphaned state — no vCPU, queue entry, task, service or ring
   descriptor. *)

(* The p99 contract the victims (boot tenants) are judged against: what a
   dynamic neighbour's arrival, storm or departure may add to their
   data-plane tail. *)
let contract = Time_ns.us 250

let boot_specs =
  [
    Tenant.spec ~weight:2 ~dp_p99_bound:contract "alpha";
    Tenant.spec ~dp_p99_bound:contract "bravo";
  ]

let dyn_spec i = Tenant.spec ~weight:2 (Printf.sprintf "dyn-%d" i)

type scenario = Wave | Depart | Flap | Refusal | Chaos

type victim_row = {
  vname : string;
  packets : int;
  p99_us : float;
  bound_us : float;
}

type outcome = {
  key : string;
  scenario : scenario;
  admitted : int;
  refused : int;
  retries : int;
  abandoned : int;
  drains : int;
  forced : int;
  forced_receipts : int;  (** recovery.drain.forced *)
  retired : int;
  spawn_refused : int;
  discarded : int;
  stragglers : int;  (** sched.grant_after_retire *)
  pool_end : int;
  floats_end : int;
  population : int;  (** Tenant.count at cell end — ids never reused *)
  victims : victim_row list;
  fingerprint : string;
}

(* --- helpers ------------------------------------------------------------- *)

let spawn_work sys = spawn_synth sys ~stream:"churn-"

(* Victim latency over the PINNED services only. A floating service's
   recorder spans every owner it ever served, so merging by current owner
   (as [System.dp_latency_hist_of] does) would blame a dynamic tenant's
   backlog on the boot tenant the service rests with. *)
let victim_hist sys ~tenant =
  let tc = Option.get (System.taichi sys) in
  let dps = System.services sys in
  let keep = List.length dps - (Taichi.config tc).Config.float_services in
  List.fold_left
    (fun acc dp ->
      if Dp_service.tenant dp = tenant then
        Histogram.merge acc
          (Taichi_metrics.Recorder.histogram (Dp_service.latency dp))
      else acc)
    (Histogram.create ())
    (List.filteri (fun i _ -> i < keep) dps)

let at sys offset f = ignore (Sim.after (System.sim sys) offset f)

(* --- scenario drivers ----------------------------------------------------- *)

(* Each driver schedules its churn events at absolute offsets from the
   cell start, so the relative order (and every oracle below) is stable
   across duration scales. *)

let drive_wave sys lc =
  (* Arrivals may land on an active governor rung (the backpressure
     refusal is part of normal operation); the backoff must carry each
     wave through to admission. *)
  let admit_and_run ~idx ~t_admit ~dwell =
    at sys t_admit (fun () ->
        Lifecycle.admit_with_backoff lc (dyn_spec idx)
          ~on_admitted:(fun id ->
            (* CP-only: a wave tenant that feeds its single float service
               saturates enough 200us busy windows (on top of the
               baseline) to double-vote with the p99 signal and ladder to
               the sticky static-partition rung, holding global
               backpressure for its whole life — the second wave could
               then never admit. The ring-drain path is exercised by
               steady-depart and the chaos cell instead. *)
            spawn_work sys ~tenant:id ~count:2 ~work:(Time_ns.ms 1)
              ~tag:"wave";
            at sys dwell (fun () -> Lifecycle.retire lc ~tenant:id))
          ~on_abandoned:(fun _ -> ()))
  in
  admit_and_run ~idx:0 ~t_admit:(Time_ns.ms 8) ~dwell:(Time_ns.ms 24);
  admit_and_run ~idx:1 ~t_admit:(Time_ns.ms 16) ~dwell:(Time_ns.ms 24)

let drive_depart sys lc =
  at sys (Time_ns.ms 8) (fun () ->
      match Lifecycle.admit lc ~vcpus:2 (dyn_spec 0) with
      | Error _ -> ()
      | Ok id ->
          (* A storm sized well past the retire point: the drain cannot
             quiesce inside its window and must escalate. *)
          spawn_work sys ~tenant:id ~count:4 ~work:(Time_ns.ms 20)
            ~tag:"depart";
          (* DP traffic on the tenant's own (floating) services. *)
          start_dp_load sys
            ~rng:(Rng.split (System.rng sys) (Printf.sprintf "churn-dp-%d" id))
            ~cores:(tenant_dp_cores sys ~tenant:id)
            ~net:0.7 ~storage:0.7
            ~until:(Sim.now (System.sim sys) + Time_ns.ms 24);
          at sys (Time_ns.ms 22) (fun () -> Lifecycle.retire lc ~tenant:id);
          (* Post-retire spawn: the drain gate must refuse it. *)
          at sys (Time_ns.ms 23) (fun () ->
              System.spawn_cp ~tenant:id sys
                (synth_task sys ~stream:"churn-" ~tenant:id
                   ~work:(Time_ns.ms 1) ~name:"depart-late")))

let drive_flap sys lc =
  for i = 0 to 3 do
    at sys (Time_ns.ms (8 + (10 * i))) (fun () ->
        match Lifecycle.admit lc (dyn_spec i) with
        | Error _ -> ()
        | Ok id ->
            spawn_work sys ~tenant:id ~count:2 ~work:(Time_ns.ms 1)
              ~tag:"flap";
            at sys (Time_ns.ms 5) (fun () -> Lifecycle.retire lc ~tenant:id))
  done

let drive_refusal sys lc =
  (* dyn-0 takes 3 of the 4 spare vCPUs; dyn-1 then asks for 2 and is
     refused until dyn-0 departs — the capped backoff must carry the
     retry across the departure. *)
  at sys (Time_ns.ms 8) (fun () ->
      match Lifecycle.admit lc ~vcpus:3 (dyn_spec 0) with
      | Error _ -> ()
      | Ok id ->
          spawn_work sys ~tenant:id ~count:2 ~work:(Time_ns.ms 1) ~tag:"ref";
          at sys (Time_ns.ms 6) (fun () -> Lifecycle.retire lc ~tenant:id));
  at sys (Time_ns.ms 8 + Time_ns.us 200) (fun () ->
      Lifecycle.admit_with_backoff lc ~vcpus:2 (dyn_spec 1)
        ~on_admitted:(fun id ->
          spawn_work sys ~tenant:id ~count:2 ~work:(Time_ns.ms 1) ~tag:"ref";
          at sys (Time_ns.ms 8) (fun () -> Lifecycle.retire lc ~tenant:id))
        ~on_abandoned:(fun _ -> ()))

let drive_chaos sys lc inj ~until =
  wire_injector sys inj ~prefix:"churn";
  (* The three churn fault classes. [live] is this cell's view of the
     dynamic population (scoped to the closure — no module state). *)
  let next = ref 0 and live = ref [] in
  let fresh () =
    let i = !next in
    incr next;
    dyn_spec i
  in
  Injector.set_churn_arrive inj (fun () ->
      Lifecycle.admit_with_backoff lc (fresh ())
        ~on_admitted:(fun id ->
          live := !live @ [ id ];
          spawn_work sys ~tenant:id ~count:2 ~work:(Time_ns.ms 1) ~tag:"arr")
        ~on_abandoned:(fun _ -> ()));
  Injector.set_churn_depart inj (fun () ->
      match !live with
      | [] -> ()
      | id :: rest ->
          live := rest;
          (* Departure mid-CP-storm: pile work on, then retire into it. *)
          spawn_work sys ~tenant:id ~count:3 ~work:(Time_ns.ms 3) ~tag:"dep";
          at sys (Time_ns.us 200) (fun () -> Lifecycle.retire lc ~tenant:id));
  Injector.set_churn_overrun inj (fun () ->
      match Lifecycle.admit lc (fresh ()) with
      | Error _ -> ()
      | Ok id ->
          (* One task sized far past the drain window, retired under it:
             the graceful poll cannot win, the escalation must. *)
          spawn_work sys ~tenant:id ~count:1 ~work:(Time_ns.ms 8) ~tag:"ovr";
          at sys (Time_ns.us 200) (fun () -> Lifecycle.retire lc ~tenant:id));
  Injector.arm inj ~until

(* --- one cell ------------------------------------------------------------- *)

let measure ctx ~seed ~scale ~key ~scenario =
  let config =
    let c = Config.no_hw_probe Config.default in
    let c = Config.with_tenants c boot_specs in
    let c = Config.with_overload c in
    let c = if scenario = Chaos then Config.resilient c else c in
    Config.with_churn c
  in
  let injector = ref None in
  let prepare machine =
    if scenario = Chaos then begin
      let rng = Rng.split (Rng.create ~seed) "churn-chaos" in
      injector :=
        Some
          (Injector.create ~rng ~machine
             ~boot_vector:Kernel.default_config.Kernel.boot_vector
             Injector.churn)
    end
  in
  with_system ~ctx ~prepare ~seed (Policy.Taichi config) (fun sys ->
      let sim = System.sim sys in
      let counters = Machine.counters (System.machine sys) in
      let lc = lifecycle_of sys in
      let dur =
        if scenario = Chaos then max (Time_ns.ms 40) (scaled scale (Time_ns.ms 40))
        else max (Time_ns.ms 60) (scaled scale (Time_ns.ms 80))
      in
      let grace = Time_ns.ms 12 in
      let until = Sim.now sim + dur in
      (* Baseline: both boot tenants carry light DP traffic and a light CP
         population for the whole window — the victims whose p99 the
         contract protects. *)
      start_bg_dp sys ~target:0.25 ~storage_target:0.12 ~until;
      List.iter
        (fun tid -> spawn_work sys ~tenant:tid ~count:3 ~work:(dur / 16)
             ~tag:"boot")
        [ 0; 1 ];
      (match scenario with
      | Wave -> drive_wave sys lc
      | Depart -> drive_depart sys lc
      | Flap -> drive_flap sys lc
      | Refusal -> drive_refusal sys lc
      | Chaos -> drive_chaos sys lc (Option.get !injector) ~until);
      (* The grace window is fault- and churn-free: started drains finish
         (forced ones need the window plus a reap), the governor ladder
         relaxes, the books settle. *)
      System.advance sys (dur + grace);
      let get = Counters.get counters in
      let table = System.tenants sys in
      let victims =
        List.map
          (fun tid ->
            let tenant = Tenant.get table tid in
            let hist = victim_hist sys ~tenant:tid in
            {
              vname = tenant.Tenant.name;
              packets = Histogram.count hist;
              p99_us = p99_us hist;
              bound_us = float_of_int tenant.Tenant.dp_p99_bound /. 1e3;
            })
          [ 0; 1 ]
      in
      {
        key;
        scenario;
        admitted = get "churn.admitted";
        refused = get "churn.admit_refused";
        retries = get "churn.admit_retries";
        abandoned = get "churn.admit_abandoned";
        drains = get "churn.drains";
        forced = get "churn.drain_forced";
        forced_receipts = get "recovery.drain.forced";
        retired = get "churn.retired";
        spawn_refused = get "churn.spawn_refused";
        discarded = get "churn.drain_discarded_pkts";
        stragglers = get "sched.grant_after_retire";
        pool_end = Lifecycle.pool_size lc;
        floats_end = Lifecycle.free_services lc;
        population = Tenant.count table;
        victims;
        fingerprint =
          fingerprint [ ("", sys) ]
            (List.map
               (fun v -> Printf.sprintf "p99.%s=%.3f" v.vname v.p99_us)
               victims);
      })

(* --- oracles ------------------------------------------------------------- *)

let spares = 4 (* Config.with_churn defaults, pinned by the pool oracles *)
let floats = 2

let check_oracles cells =
  let fail fmt = Printf.ksprintf failwith fmt in
  List.iter
    (fun c ->
      (* Universal: every drain that started also finished — retirement
         is never left half-done, however it was provoked. *)
      if c.drains <> c.retired then
        fail "exp_churn[%s]: %d drains started but %d retirements completed"
          c.key c.drains c.retired;
      if c.retired > 0 && (c.pool_end <> spares || c.floats_end <> floats)
         && c.scenario <> Chaos
      then
        fail
          "exp_churn[%s]: pool not whole after retirement (vcpus %d/%d, \
           services %d/%d)"
          c.key c.pool_end spares c.floats_end floats;
      (* Victim contracts hold in every non-chaos cell. *)
      if c.scenario <> Chaos then
        List.iter
          (fun v ->
            if v.packets = 0 then
              fail "exp_churn[%s]: victim %s observed no DP traffic" c.key
                v.vname;
            if v.p99_us > v.bound_us then
              fail
                "exp_churn[%s]: churn moved victim %s's DP p99 to %.1fus, \
                 past its %.1fus contract"
                c.key v.vname v.p99_us v.bound_us)
          c.victims;
      match c.scenario with
      | Wave ->
          if c.admitted <> 2 || c.retired <> 2 then
            fail "exp_churn[%s]: expected 2 admit + 2 retire, got %d + %d"
              c.key c.admitted c.retired;
          if c.abandoned <> 0 then
            fail
              "exp_churn[%s]: %d arrivals abandoned — backpressure backoff \
               did not carry the wave through"
              c.key c.abandoned;
          if c.forced <> 0 then
            fail "exp_churn[%s]: %d quiet-tenant drains were forced" c.key
              c.forced;
          if c.population <> 4 then
            fail "exp_churn[%s]: population %d, expected 4 (dense, unreused)"
              c.key c.population
      | Depart ->
          if c.admitted <> 1 || c.retired <> 1 then
            fail "exp_churn[%s]: expected 1 admit + 1 retire, got %d + %d"
              c.key c.admitted c.retired;
          if c.forced < 1 then
            fail
              "exp_churn[%s]: a mid-storm departure drained gracefully — \
               the cell is not stressful enough to test escalation"
              c.key;
          if c.forced_receipts < 1 then
            fail "exp_churn[%s]: forced drain left no recovery receipt" c.key;
          if c.spawn_refused < 1 then
            fail
              "exp_churn[%s]: the post-retire spawn was not refused by the \
               drain gate"
              c.key
      | Flap ->
          if c.admitted <> 4 || c.retired <> 4 then
            fail "exp_churn[%s]: expected 4 flaps, got %d admit / %d retire"
              c.key c.admitted c.retired;
          if c.population <> 6 then
            fail "exp_churn[%s]: population %d, expected 6 (ids never reused)"
              c.key c.population
      | Refusal ->
          if c.refused < 1 then
            fail
              "exp_churn[%s]: pool exhaustion never refused an admission"
              c.key;
          if c.retries < 1 then
            fail "exp_churn[%s]: the refusal was never retried" c.key;
          if c.abandoned <> 0 then
            fail
              "exp_churn[%s]: %d admissions abandoned — the departure did \
               not free capacity inside the retry budget"
              c.key c.abandoned;
          if c.admitted <> 2 then
            fail "exp_churn[%s]: expected both tenants admitted, got %d"
              c.key c.admitted
      | Chaos ->
          if c.admitted < 1 then
            fail "exp_churn[%s]: chaos never admitted a tenant" c.key;
          if c.forced < 1 then
            fail
              "exp_churn[%s]: no drain-window overrun was forced under the \
               churn fault profile"
              c.key)
    cells

(* --- the grid ------------------------------------------------------------ *)

let grid =
  let cell key label v = ({ Exp_desc.key; label }, v) in
  [
    cell "steady-wave" "two arrival waves, graceful departures"
      (`Point Wave);
    cell "steady-depart" "departure under saturation (forced drain)"
      (`Point Depart);
    cell "flap-thrash" "4 rapid admit/retire flaps" (`Point Flap);
    cell "flap-refusal" "pool exhaustion, backoff across a departure"
      (`Point Refusal);
    cell "chaos-churn" "churn fault profile over flaky background faults"
      (`Point Chaos);
    cell "repeat-flap" "determinism repeat: 4 rapid flaps" `Repeat;
  ]

let profile_names = [ "steady"; "flap"; "chaos" ]

(* The CI matrix pins one profile per job; the CLI turns --churn-profile
   into a cell filter over these keys (the repeat cell rides with the
   flap profile). *)
let profile_filter profile cell =
  let key = cell.Exp_desc.key in
  String.starts_with ~prefix:(profile ^ "-") key
  || (profile = "flap" && key = "repeat-flap")

let churn =
  Exp_desc.make ~name:"churn"
    ~title:
      "CHURN: live tenant admit/retire x {steady waves, flap/thrash, \
       chaos-under-churn} (drain, refusal, isolation and zero-orphan \
       oracles)"
    ~description:
      "Dynamic tenant population under fire: refusable admission with \
       capped backoff, graceful drain with watchdog-forced escalation, \
       pool restoration, victim p99 contracts and the zero-orphan drain \
       audit, including a chaos-under-churn fault profile"
    ~grid
    ~run_cell:(fun ctx ~seed ~scale cell point ->
      match point with
      | `Point scenario ->
          Run_ctx.printf ctx "\n-- %s: %s (seed %d)\n" cell.Exp_desc.key
            cell.Exp_desc.label seed;
          measure ctx ~seed ~scale ~key:cell.Exp_desc.key ~scenario
      | `Repeat ->
          Run_ctx.printf ctx
            "\n-- determinism check: repeating flap-thrash (seed %d)\n" seed;
          measure ctx ~seed ~scale ~key:"repeat-flap" ~scenario:Flap)
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let cells = results_except "repeat-flap" results in
      let table =
        Table.create
          ~columns:
            [
              ("cell", Table.Left);
              ("admit", Table.Right);
              ("refused", Table.Right);
              ("retries", Table.Right);
              ("drains", Table.Right);
              ("forced", Table.Right);
              ("retired", Table.Right);
              ("discard", Table.Right);
              ("straggle", Table.Right);
              ("pool", Table.Right);
              ("pop", Table.Right);
              ("p99_us", Table.Right);
            ]
      in
      List.iter
        (fun c ->
          let worst =
            List.fold_left (fun acc v -> Float.max acc v.p99_us) 0.0 c.victims
          in
          Table.add_row table
            [
              c.key;
              string_of_int c.admitted;
              string_of_int c.refused;
              string_of_int c.retries;
              string_of_int c.drains;
              string_of_int c.forced;
              string_of_int c.retired;
              string_of_int c.discarded;
              string_of_int c.stragglers;
              Printf.sprintf "%d+%d" c.pool_end c.floats_end;
              string_of_int c.population;
              Printf.sprintf "%.1f" worst;
            ])
        cells;
      Run_ctx.print_table ctx table;
      check_oracles cells;
      check_repeat ~experiment:"exp_churn" ~base:"flap-thrash"
        ~repeat:"repeat-flap"
        (fun o -> o.fingerprint)
        results;
      Run_ctx.printf ctx
        "\nEvery drain completed (forced only where provoked), refusals \
         were retried across departures, victims kept their p99 contracts \
         and retired tenants left zero orphaned state.\n")
