(* The tenant registry, the two-stage weighted run queue, and the
   per-tenant export validation.

   The Wsched properties are the satellite oracles of the multitenant
   refactor, checked in isolation (the queue is pure and deterministic):
   weight-proportional grants under saturation, work conservation when a
   tenant idles, starvation-freedom for weight-1 tenants, and exact
   degeneration to the seed scheduler's flat FIFO with one tenant. *)

open Taichi_engine
open Taichi_core

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Tenant registry ----------------------------------------------------- *)

let test_tenant_table () =
  let tbl =
    Tenant.of_specs
      [ Tenant.spec ~weight:3 "alpha"; Tenant.spec ~cls:Tenant.Critical "bravo" ]
  in
  checkb "explicit table is multi" true (Tenant.is_multi tbl);
  checki "two tenants" 2 (Tenant.count tbl);
  checki "dense ids" 1 (Tenant.get tbl 1).Tenant.id;
  checki "weight kept" 3 (Tenant.get tbl 0).Tenant.weight;
  checki "total weight" 4 (Tenant.total_weight tbl);
  checkb "single is not multi" false (Tenant.is_multi Tenant.single);
  checki "single has one tenant" 1 (Tenant.count Tenant.single);
  checkb "empty spec list is the single table" false
    (Tenant.is_multi (Tenant.of_specs []))

let test_tenant_spec_validation () =
  Alcotest.check_raises "non-positive weight rejected"
    (Invalid_argument "Tenant.spec: weight must be positive") (fun () ->
      ignore (Tenant.spec ~weight:0 "x"));
  (* The registry errors name the offender, not just the offence — the
     operator fixing a 40-tenant config needs to know which row. *)
  Alcotest.check_raises "duplicate names name the offender"
    (Invalid_argument "Tenant.of_specs: duplicate tenant name \"a\"")
    (fun () -> ignore (Tenant.of_specs [ Tenant.spec "a"; Tenant.spec "a" ]));
  Alcotest.check_raises "empty name names the spec position"
    (Invalid_argument "Tenant.of_specs: empty tenant name (spec 1)") (fun () ->
      ignore
        (Tenant.of_specs
           [ Tenant.spec "a"; { (Tenant.spec "b") with Tenant.name = "" } ]));
  Alcotest.check_raises "hand-built bad weight names the tenant"
    (Invalid_argument "Tenant.of_specs: non-positive weight for tenant \"b\"")
    (fun () ->
      ignore
        (Tenant.of_specs
           [ Tenant.spec "a"; { (Tenant.spec "b") with Tenant.weight = 0 } ]))

(* The queue constructor shares the same message shape: a zero-length
   weights array and a non-positive weight are both named. *)
let test_wsched_create_validation () =
  Alcotest.check_raises "empty weights array rejected"
    (Invalid_argument "Wsched.create: empty weights array (no tenants)")
    (fun () -> ignore (Wsched.create ~weights:[||] ~classes:1));
  Alcotest.check_raises "non-positive weight names the lane"
    (Invalid_argument "Wsched.create: non-positive weight for tenant 1")
    (fun () -> ignore (Wsched.create ~weights:[| 1; 0 |] ~classes:1))

let test_tenant_lifecycle () =
  let tbl = Tenant.of_specs [ Tenant.spec "a"; Tenant.spec "b" ] in
  let t = Tenant.admit tbl (Tenant.spec "c") in
  checki "admission assigns the next dense id" 2 t.Tenant.id;
  checkb "admitted tenants accept CP work" true (Tenant.accepting tbl 2);
  Tenant.set_phase tbl 2 Tenant.Active;
  Tenant.set_phase tbl 2 Tenant.Draining;
  checkb "draining tenants refuse new CP work" false (Tenant.accepting tbl 2);
  checkb "draining tenants are still live" true (Tenant.live tbl 2);
  Tenant.set_phase tbl 2 Tenant.Retired;
  checkb "retired tenants are not live" false (Tenant.live tbl 2);
  Alcotest.check_raises "the lifecycle is a one-way street"
    (Invalid_argument
       "Tenant.set_phase: illegal transition retired -> active for \"c\"")
    (fun () -> Tenant.set_phase tbl 2 Tenant.Active);
  (* A retired name is reusable; the re-admission gets a fresh id and
     the old row keeps its id and frozen state. *)
  let t2 = Tenant.admit tbl (Tenant.spec "c") in
  checki "re-admission gets a fresh id" 3 t2.Tenant.id;
  checkb "old row keeps its id" true (Tenant.phase tbl 2 = Tenant.Retired)

let test_counter_roundtrip () =
  let name = Tenant.counter 3 "overload.shed.deferrable" in
  Alcotest.(check string) "name" "tenant.3.overload.shed.deferrable" name;
  (match Tenant.parse_counter name with
  | Some (3, "overload.shed.deferrable") -> ()
  | _ -> Alcotest.fail "parse_counter failed to round-trip");
  checkb "non-tenant name ignored" true
    (Tenant.parse_counter "sched.placements" = None);
  checkb "malformed id ignored" true (Tenant.parse_counter "tenant.x.foo" = None)

(* --- Wsched: drive loop -------------------------------------------------- *)

(* Saturation harness: [busy] tenants are re-queued right after every
   grant, so the tenant stage always has a full choice; each pop charges
   one fixed quantum. Returns the pop sequence. *)
let drive q ~busy ~rounds ~quantum =
  let served = ref [] in
  for _ = 1 to rounds do
    match Wsched.pop ~gate:(fun _ -> true) q with
    | None -> ()
    | Some t ->
        served := t :: !served;
        Wsched.charge q ~tenant:t quantum;
        if busy t then Wsched.push q ~tenant:t ~cls:1 t
  done;
  List.rev !served

let weights_gen =
  QCheck.(list_of_size Gen.(int_range 2 5) (int_range 1 8))

let prop_weighted_shares =
  QCheck.Test.make ~name:"wsched: grants track weights under saturation"
    ~count:60 weights_gen (fun wl ->
      let weights = Array.of_list wl in
      let n = Array.length weights in
      let q = Wsched.create ~weights ~classes:3 in
      for t = 0 to n - 1 do
        Wsched.push q ~tenant:t ~cls:1 t
      done;
      let rounds = 4000 and quantum = 100 in
      let served = drive q ~busy:(fun _ -> true) ~rounds ~quantum in
      if List.length served <> rounds then false
      else
        let total_w = Array.fold_left ( + ) 0 weights in
        let total_g = rounds * quantum in
        Array.to_list
          (Array.mapi
             (fun t w ->
               let share =
                 float_of_int (Wsched.granted q ~tenant:t)
                 /. float_of_int total_g
               in
               Float.abs (share -. (float_of_int w /. float_of_int total_w))
               <= 0.05)
             weights)
        |> List.for_all Fun.id)

let prop_work_conservation =
  QCheck.Test.make
    ~name:"wsched: idle tenants' capacity is redistributed by weight"
    ~count:60
    QCheck.(pair weights_gen (int_range 0 4))
    (fun (wl, idle_pick) ->
      let weights = Array.of_list wl in
      let n = Array.length weights in
      let idle = idle_pick mod n in
      let busy t = t <> idle in
      let q = Wsched.create ~weights ~classes:3 in
      for t = 0 to n - 1 do
        if busy t then Wsched.push q ~tenant:t ~cls:1 t
      done;
      let rounds = 4000 and quantum = 100 in
      let served = drive q ~busy ~rounds ~quantum in
      (* Work conservation: with backlog present, every pop serves. *)
      if List.length served <> rounds then false
      else if Wsched.granted q ~tenant:idle <> 0 then false
      else
        (* The busy tenants split the whole capacity in proportion to
           their weights alone — the idle weight is not reserved. *)
        let busy_w =
          Array.to_list weights
          |> List.mapi (fun t w -> if busy t then w else 0)
          |> List.fold_left ( + ) 0
        in
        let total_g = rounds * quantum in
        List.for_all
          (fun t ->
            (not (busy t))
            || Float.abs
                 (float_of_int (Wsched.granted q ~tenant:t)
                  /. float_of_int total_g
                 -. (float_of_int weights.(t) /. float_of_int busy_w))
               <= 0.05)
          (List.init n Fun.id))

let prop_starvation_freedom =
  QCheck.Test.make
    ~name:"wsched: weight-1 tenants are served with bounded gaps" ~count:60
    weights_gen (fun wl ->
      (* Pin a weight-1 tenant into every drawn vector. *)
      let weights = Array.of_list (1 :: wl) in
      let n = Array.length weights in
      let q = Wsched.create ~weights ~classes:3 in
      for t = 0 to n - 1 do
        Wsched.push q ~tenant:t ~cls:1 t
      done;
      let rounds = 3000 and quantum = 100 in
      let served = drive q ~busy:(fun _ -> true) ~rounds ~quantum in
      let total_w = Array.fold_left ( + ) 0 weights in
      (* Under equal quanta a weight-w tenant is due every total_w/w
         pops; allow a generous constant factor for the virtual-clock
         transient. Violation means starvation. *)
      let bound = (3 * total_w) + n in
      let last = Array.make n 0 in
      let ok = ref true in
      List.iteri
        (fun i t ->
          if i - last.(t) > bound then ok := false;
          last.(t) <- i)
        served;
      !ok)

let prop_flat_fifo_degeneration =
  QCheck.Test.make
    ~name:"wsched: single tenant, single class degenerates to FIFO" ~count:100
    QCheck.(small_list small_int)
    (fun xs ->
      let q = Wsched.create ~weights:[| 1 |] ~classes:1 in
      List.iter (fun x -> Wsched.push q ~tenant:0 ~cls:0 x) xs;
      let rec drain acc =
        match Wsched.pop ~gate:(fun _ -> true) q with
        | Some x -> drain (x :: acc)
        | None -> List.rev acc
      in
      drain [] = xs)

let prop_class_strict_priority =
  QCheck.Test.make
    ~name:"wsched: class stage is strict priority, FIFO within class"
    ~count:100
    QCheck.(small_list (int_range 0 2))
    (fun classes ->
      let q = Wsched.create ~weights:[| 1 |] ~classes:3 in
      List.iteri (fun i cls -> Wsched.push q ~tenant:0 ~cls (cls, i)) classes;
      let rec drain acc =
        match Wsched.pop ~gate:(fun _ -> true) q with
        | Some x -> drain (x :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      (* Stable sort by class rank is exactly strict priority with FIFO
         tie-break when everything is enqueued before the first pop. *)
      popped
      = List.stable_sort
          (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i cls -> (cls, i)) classes))

(* --- Wsched: dynamic lanes (churn) --------------------------------------- *)

(* Random interleaving of push/pop/charge with admit/flush/retire. The
   queue must stay work-conserving (a pop with live backlog always
   serves) and conserve elements exactly: everything pushed is either
   served, handed back by a flush, or still queued at the end. *)
let prop_churn_conservation =
  QCheck.Test.make
    ~name:"wsched: admit/retire churn conserves work and elements" ~count:80
    QCheck.(
      pair weights_gen (list_of_size Gen.(int_range 20 120) (int_range 0 99)))
    (fun (wl, ops) ->
      let q = Wsched.create ~weights:(Array.of_list wl) ~classes:3 in
      let pushed = ref 0 and served = ref 0 and flushed = ref 0 in
      let live = ref (List.init (List.length wl) Fun.id) in
      let pick r l = List.nth l (r mod List.length l) in
      let ok = ref true in
      List.iter
        (fun op ->
          match op mod 5 with
          | 0 | 1 ->
              let t = pick op !live in
              Wsched.push q ~tenant:t ~cls:(op mod 3) t;
              incr pushed
          | 2 -> (
              let backlog = Wsched.length q in
              match Wsched.pop ~gate:(fun _ -> true) q with
              | Some t ->
                  incr served;
                  Wsched.charge q ~tenant:t 100
              | None -> if backlog > 0 then ok := false)
          | 3 ->
              let id = Wsched.admit q ~weight:((op mod 4) + 1) in
              live := !live @ [ id ]
          | _ -> (
              (* Retire a random lane (flush first, as the force-drain
                 path does), keeping at least one lane alive. *)
              match !live with
              | [] | [ _ ] -> ()
              | l ->
                  let t = pick (op / 5) l in
                  flushed := !flushed + List.length (Wsched.flush q ~tenant:t);
                  Wsched.retire q ~tenant:t;
                  if Wsched.is_live q ~tenant:t then ok := false;
                  live := List.filter (fun x -> x <> t) l))
        ops;
      !ok && !pushed = !served + !flushed + Wsched.length q)

(* Starvation bound across a churn event: retire a lane mid-saturation
   and admit a heavy newcomer; the surviving weight-1 tenant must keep
   being served with bounded gaps, the retired lane never again. *)
let prop_churn_starvation_bound =
  QCheck.Test.make
    ~name:"wsched: churned queues keep weight-1 tenants inside the gap bound"
    ~count:40 weights_gen (fun wl ->
      let weights = Array.of_list (1 :: wl) in
      let n = Array.length weights in
      let q = Wsched.create ~weights ~classes:3 in
      for t = 0 to n - 1 do
        Wsched.push q ~tenant:t ~cls:1 t
      done;
      let quantum = 100 in
      ignore (drive q ~busy:(fun _ -> true) ~rounds:500 ~quantum);
      let victim = n - 1 in
      ignore (Wsched.flush q ~tenant:victim);
      Wsched.retire q ~tenant:victim;
      let newcomer = Wsched.admit q ~weight:8 in
      Wsched.push q ~tenant:newcomer ~cls:1 newcomer;
      let busy t = t <> victim in
      let served = drive q ~busy ~rounds:3000 ~quantum in
      let total_w = Array.fold_left ( + ) 0 weights + 8 in
      let bound = (3 * total_w) + n + 1 in
      let last = Array.make (n + 1) 0 in
      let ok = ref true in
      List.iteri
        (fun i t ->
          if i - last.(t) > bound then ok := false;
          last.(t) <- i)
        served;
      !ok && (not (List.mem victim served)) && List.mem newcomer served)

(* No credit resurrection: a tenant that burned through grant time,
   retired, and came back must re-enter at the active minimum clock —
   not at zero, where the scheduler would hand it a catch-up burst for
   the whole window it sat retired. *)
let test_readmission_no_credit () =
  let q = Wsched.create ~weights:[| 1; 1 |] ~classes:1 in
  Wsched.push q ~tenant:0 ~cls:0 0;
  Wsched.push q ~tenant:1 ~cls:0 1;
  ignore (drive q ~busy:(fun _ -> true) ~rounds:200 ~quantum:100);
  ignore (Wsched.flush q ~tenant:1);
  Wsched.retire q ~tenant:1;
  checkb "retired lane reads dead" false (Wsched.is_live q ~tenant:1);
  Alcotest.check_raises "push to a retired lane raises"
    (Invalid_argument "Wsched.push: retired tenant") (fun () ->
      Wsched.push q ~tenant:1 ~cls:0 1);
  checkb "granted total survives retirement" true
    (Wsched.granted q ~tenant:1 > 0);
  let id = Wsched.admit q ~weight:1 in
  checki "re-admission appends a fresh lane" 2 id;
  Wsched.push q ~tenant:id ~cls:0 id;
  let served = drive q ~busy:(fun _ -> true) ~rounds:200 ~quantum:100 in
  let count t = List.length (List.filter (( = ) t) served) in
  (* Equal weights, both saturated: equal halves. Had the lane entered
     at clock zero it would monopolize ~half the window catching up. *)
  checkb "no banked credit for the newcomer" true (abs (count 0 - count id) <= 2);
  checkb "incumbent served promptly after the admission" true
    (List.mem 0 (List.filteri (fun i _ -> i < 4) served))

let test_gate_skips_only_this_pop () =
  let q = Wsched.create ~weights:[| 1; 1 |] ~classes:2 in
  Wsched.push q ~tenant:0 ~cls:0 "a";
  Wsched.push q ~tenant:1 ~cls:0 "b";
  (* Tenant 0 gated: pop must fall through to tenant 1, keeping 0 queued. *)
  (match Wsched.pop ~gate:(fun t -> t <> 0) q with
  | Some "b" -> ()
  | _ -> Alcotest.fail "gated pop should serve the other tenant");
  checki "gated tenant still queued" 1 (Wsched.backlog q ~tenant:0);
  (match Wsched.pop ~gate:(fun _ -> true) q with
  | Some "a" -> ()
  | _ -> Alcotest.fail "gate refusal must not drop the element");
  checkb "empty at the end" true (Wsched.is_empty q)

(* The gate-rejected set is per pop, at any lane count: with 70 lanes
   and every gate refusing but the last lane's, one pop consults each
   backlogged lane exactly once and serves the last; the next pop starts
   with a clean set. *)
let test_gate_many_lanes () =
  let n = 70 in
  let q = Wsched.create ~weights:(Array.make n 1) ~classes:1 in
  for i = 0 to n - 1 do
    Wsched.push q ~tenant:i ~cls:0 i
  done;
  let asked = Array.make n 0 in
  let gate i =
    asked.(i) <- asked.(i) + 1;
    i = n - 1
  in
  (match Wsched.pop ~gate q with
  | Some x -> checki "the only consenting lane is served" (n - 1) x
  | None -> Alcotest.fail "a consenting lane was skipped");
  checkb "each lane asked once" true (Array.for_all (( = ) 1) asked);
  checkb "refused lanes stay queued, next pop serves lane 0" true
    (Wsched.pop ~gate:(fun _ -> true) q = Some 0)

(* Tenant ids only grow (retired lanes are frozen, never reused), so a
   long churn run admits far more tenants over its lifetime than are
   ever live at once. Each tenant here is admitted, handed a CP task,
   retired and drained before the next arrives, well past id 61. *)
let test_lifecycle_past_61 () =
  let open Taichi_platform in
  let config =
    Config.with_churn
      (Config.with_tenants
         (Config.no_hw_probe Config.default)
         [ Tenant.spec "alpha"; Tenant.spec "bravo" ])
  in
  Exp_common.with_system ~seed:5 (Policy.Taichi config) (fun sys ->
      let lc = Option.get (System.lifecycle sys) in
      let retired = ref 0 in
      Lifecycle.on_retired lc (fun _ -> incr retired);
      for n = 1 to 70 do
        let name = Printf.sprintf "dyn-%d" n in
        match Lifecycle.admit lc (Tenant.spec name) with
        | Error r ->
            Alcotest.failf "admission %d refused: %s" n
              (Lifecycle.refusal_label r)
        | Ok id ->
            checki "ids stay dense" (n + 1) id;
            System.spawn_cp ~tenant:id sys
              (Taichi_controlplane.Synth_cp.make ~tenant:id
                 ~rng:(Rng.split (System.rng sys) name)
                 ~params:Taichi_controlplane.Synth_cp.default_params
                 ~locks:[] ~affinity:[] ~name ());
            Lifecycle.retire lc ~tenant:id;
            System.advance sys (Time_ns.ms 3)
      done;
      checki "every dynamic tenant retired" 70 !retired;
      checki "one row per lifetime tenant" 72
        (Tenant.count (System.tenants sys)))

(* --- per-tenant export validation ---------------------------------------- *)

(* A real multi-tenant run: build the system end-to-end so the mirrored
   per-tenant counters are produced by the actual instrumentation, then
   tamper with the export to hit each validator error path. *)
let traced_multi_run ~seed =
  let open Taichi_hw in
  let open Taichi_platform in
  let config =
    Config.with_tenants
      (Config.no_hw_probe Config.default)
      [ Tenant.spec ~weight:3 "alpha"; Tenant.spec "bravo" ]
  in
  let sys = System.create ~seed (Policy.Taichi config) in
  let machine = System.machine sys in
  Trace.set_enabled (Machine.trace machine) true;
  System.warmup sys;
  let until = Sim.now (System.sim sys) + Time_ns.ms 40 in
  Exp_common.start_bg_dp sys ~target:0.3 ~until;
  Exp_common.start_cp_churn sys ~period:(Time_ns.ms 1) ~work:(Time_ns.ms 4)
    ~until;
  System.advance sys (Time_ns.ms 50);
  let table = System.tenants sys in
  Taichi_metrics.Export.make_run ~tenants:(Tenant.ids table) ~experiment:"test"
    ~policy:"taichi" ~seed
    ~duration:(Sim.now (System.sim sys))
    ~cores:(Machine.physical_cores machine)
    ~counters:(Counters.dump (Machine.counters machine))
    (Machine.trace machine)

let validate runs =
  Taichi_metrics.Export.validate_string
    (Taichi_metrics.Export.to_string runs)

let test_multi_export_validates () =
  let run = traced_multi_run ~seed:11 in
  let open Taichi_metrics in
  (* The run must actually exercise the per-tenant lanes, or the sum
     checks below are vacuous. *)
  checkb "per-tenant counters present" true
    (List.exists
       (fun (name, _) -> Tenant.parse_counter name <> None)
       run.Export.counters);
  checkb "tenants field populated" true (run.Export.tenants = [ 0; 1 ]);
  match validate [ run ] with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("multi-tenant export failed validation: " ^ msg)

let expect_error what runs =
  match validate runs with
  | Ok () -> Alcotest.fail ("validator accepted " ^ what)
  | Error _ -> ()

let test_multi_export_tamper_detected () =
  let open Taichi_metrics in
  let run = traced_multi_run ~seed:12 in
  (* Re-sort after tampering so the injected rows land in snapshot order
     and each vector hits the check it targets, not the sortedness one. *)
  let with_counters counters =
    { run with Export.counters = List.sort compare counters }
  in
  expect_error "an unsorted counters snapshot"
    [ { run with Export.counters = List.rev run.Export.counters } ];
  expect_error "a duplicated counter name"
    [
      {
        run with
        Export.counters =
          (match run.Export.counters with
          | first :: rest -> first :: first :: rest
          | [] -> []);
      };
    ];
  expect_error "a per-tenant sum that exceeds its global counter"
    [ with_counters (run.Export.counters @ [ ("tenant.0.bogus.metric", 5) ]) ];
  expect_error "an unregistered tenant id"
    [ with_counters (run.Export.counters @ [ ("tenant.9.sched.placements", 0) ]) ];
  expect_error "a negative per-tenant counter"
    [ with_counters (run.Export.counters @ [ ("tenant.1.negative.metric", -1) ]) ];
  expect_error "per-tenant counters without a tenants field"
    [ { run with Export.tenants = [] } ]

(* Frozen-after-retire: once a churn retirement marker appears for a
   tenant, any later overload transition on that lane must be rejected —
   retired lanes freeze, they do not keep climbing ladders. *)
let test_frozen_lane_export () =
  let open Taichi_metrics in
  let open Taichi_engine in
  let run = traced_multi_run ~seed:13 in
  let ev ~time category message =
    { Trace.time; core = Trace.no_core; category; message }
  in
  let t0 = run.Export.duration in
  let retired =
    ev ~time:(t0 + 10) Trace.Cat.churn "retired tenant=1 forced=false"
  in
  let late_transition =
    ev ~time:(t0 + 20) Trace.Cat.overload
      "tenant=1 seq=1 from=normal to=throttle held=400000 min=400000"
  in
  (match
     validate [ { run with Export.events = run.Export.events @ [ retired ] } ]
   with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("retirement marker rejected: " ^ msg));
  expect_error "an overload transition on a retired tenant's lane"
    [
      {
        run with
        Export.events = run.Export.events @ [ retired; late_transition ];
      };
    ];
  (* A marker that does not parse would never arm the frozen-lane check
     for its tenant, so it is an error in its own right. *)
  expect_error "a malformed retirement marker"
    [
      {
        run with
        Export.events =
          run.Export.events
          @ [
              ev ~time:(t0 + 10) Trace.Cat.churn
                "retired tenant=one forced=false";
            ];
      };
    ]

let suite =
  [
    ("tenant table", `Quick, test_tenant_table);
    ("tenant spec validation", `Quick, test_tenant_spec_validation);
    ("wsched create validation", `Quick, test_wsched_create_validation);
    ("tenant lifecycle", `Quick, test_tenant_lifecycle);
    ("tenant counter round-trip", `Quick, test_counter_roundtrip);
    QCheck_alcotest.to_alcotest prop_weighted_shares;
    QCheck_alcotest.to_alcotest prop_work_conservation;
    QCheck_alcotest.to_alcotest prop_starvation_freedom;
    QCheck_alcotest.to_alcotest prop_flat_fifo_degeneration;
    QCheck_alcotest.to_alcotest prop_class_strict_priority;
    QCheck_alcotest.to_alcotest prop_churn_conservation;
    QCheck_alcotest.to_alcotest prop_churn_starvation_bound;
    ("re-admission banks no credit", `Quick, test_readmission_no_credit);
    ("gate skips one pop only", `Quick, test_gate_skips_only_this_pop);
    ("gate consulted once per lane past 61 lanes", `Quick,
      test_gate_many_lanes);
    ("lifecycle admits past 61 lifetime tenants", `Quick,
      test_lifecycle_past_61);
    ("multi-tenant export validates", `Slow, test_multi_export_validates);
    ("tampered per-tenant export rejected", `Slow,
      test_multi_export_tamper_detected);
    ("retired lane stays frozen in exports", `Slow, test_frozen_lane_export);
  ]
