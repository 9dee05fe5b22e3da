(* Tests for the authoritative per-core occupancy state machine: the full
   legality matrix, strict/permissive illegal-transition handling,
   deterministic subscriber ordering, dwell accounting, and a multi-seed
   soak over real systems ending in a clean machine-wide audit. *)

open Taichi_engine
open Taichi_hw
open Taichi_platform

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

open Core_state

let all_states =
  [
    Offline;
    Dp_running;
    Dp_counting;
    Dp_parked;
    Vcpu_running 3;
    Switching From_dp;
    Switching To_dp;
    Cp_dedicated;
  ]

(* The expected matrix, written out as a literal list so the test is an
   independent statement of the design (DESIGN.md §8) rather than a mirror
   of the implementation. Any state may additionally hot-unplug to
   [Offline]. *)
let legal_pairs =
  [
    (Offline, Dp_running);
    (Offline, Dp_counting);
    (Offline, Cp_dedicated);
    (Dp_running, Dp_counting);
    (Dp_counting, Dp_running);
    (Dp_counting, Dp_parked);
    (Dp_counting, Switching From_dp);
    (Dp_parked, Dp_running);
    (Dp_parked, Switching From_dp);
    (Switching From_dp, Switching From_dp);
    (Switching From_dp, Switching To_dp);
    (Switching From_dp, Vcpu_running 3);
    (Switching From_dp, Cp_dedicated);
    (Switching To_dp, Dp_running);
    (Switching To_dp, Dp_counting);
    (Vcpu_running 3, Switching From_dp);
    (Vcpu_running 3, Switching To_dp);
    (Vcpu_running 3, Cp_dedicated);
    (Cp_dedicated, Switching From_dp);
    (Cp_dedicated, Switching To_dp);
  ]

let test_legality_matrix () =
  List.iter
    (fun from ->
      List.iter
        (fun to_ ->
          let expected = to_ = Offline || List.mem (from, to_) legal_pairs in
          checkb
            (Printf.sprintf "%s -> %s" (state_label from) (state_label to_))
            expected
            (legal ~from ~to_))
        all_states)
    all_states;
  (* A rotation must pass through a switch: no direct vCPU-to-vCPU hop. *)
  checkb "no direct vcpu-to-vcpu" false
    (legal ~from:(Vcpu_running 1) ~to_:(Vcpu_running 2))

let make ?(cores = 2) () =
  let clock = ref 0 in
  let t = create ~cores ~now:(fun () -> !clock) in
  (clock, t)

let test_transition_applies () =
  let clock, t = make () in
  checkb "starts offline" true (get t ~core:0 = Offline);
  transition t ~core:0 ~cause:Hotplug Dp_counting;
  clock := 100;
  transition t ~core:0 ~cause:Wake Dp_running;
  checkb "state applied" true (get t ~core:0 = Dp_running);
  checki "since updated" 100 (since t ~core:0);
  checkb "other core untouched" true (get t ~core:1 = Offline);
  checki "two transitions" 2 (transitions t);
  checki "no illegal" 0 (illegal_transitions t);
  Alcotest.check_raises "out of range" (Invalid_argument
    "Core_state: core 2 out of range") (fun () ->
      transition t ~core:2 ~cause:Hotplug Dp_running)

let test_strict_rejects () =
  let _clock, t = make () in
  transition t ~core:0 ~cause:Hotplug Dp_running;
  (match transition t ~core:0 ~cause:Borrow Cp_dedicated with
  | () -> Alcotest.fail "illegal transition did not raise"
  | exception Illegal_transition _ -> ());
  checkb "state unchanged after rejection" true (get t ~core:0 = Dp_running);
  checki "rejection not recorded as applied" 0 (illegal_transitions t);
  checkb "audit clean" true (audit t = [])

let test_permissive_counts () =
  let _clock, t = make () in
  set_mode t Permissive;
  transition t ~core:0 ~cause:Hotplug Dp_running;
  transition t ~core:0 ~cause:Borrow Cp_dedicated;
  checkb "illegal transition applied" true (get t ~core:0 = Cp_dedicated);
  checki "illegal counted" 1 (illegal_transitions t);
  checkb "audit reports it" true (audit t <> [])

let test_subscriber_ordering () =
  let _clock, t = make () in
  let log = ref [] in
  subscribe t (fun ev ->
      log := Printf.sprintf "a:%s" (state_label ev.to_state) :: !log);
  subscribe t (fun ev ->
      log := Printf.sprintf "b:%s" (state_label ev.to_state) :: !log);
  transition t ~core:0 ~cause:Hotplug Dp_counting;
  transition t ~core:0 ~cause:Wake Dp_running;
  checkb "subscribers fan out in subscription order" true
    (List.rev !log
    = [ "a:dp_counting"; "b:dp_counting"; "a:dp_running"; "b:dp_running" ]);
  (* Event payload carries the full edge. *)
  let seen = ref None in
  subscribe t (fun ev -> seen := Some ev);
  transition t ~core:0 ~cause:Drain Dp_counting;
  match !seen with
  | Some ev ->
      checkb "from" true (ev.from_state = Dp_running);
      checkb "to" true (ev.to_state = Dp_counting);
      checkb "cause" true (ev.cause = Drain);
      checkb "legal" true ev.legal;
      checki "core" 0 ev.core
  | None -> Alcotest.fail "subscriber did not run"

(* The fan-out builds no closure per transition: with two subscribers a
   transition costs only the 7-word event record they receive. *)
let test_transition_words () =
  let _clock, t = make () in
  subscribe t ignore;
  subscribe t ignore;
  transition t ~core:0 ~cause:Hotplug Dp_running;
  Test_engine.check_words_cap "Core_state.transition" ~cap:7.0
    (Test_engine.minor_words_per_op (fun i ->
         transition t ~core:0 ~cause:Wake
           (if i land 1 = 0 then Dp_counting else Dp_running)))

let test_dwell_accounting () =
  let clock, t = make () in
  transition t ~core:0 ~cause:Hotplug Dp_counting;
  clock := 10;
  transition t ~core:0 ~cause:Wake Dp_running;
  clock := 25;
  transition t ~core:0 ~cause:Drain Dp_counting;
  clock := 30;
  let d = dwell t ~core:0 in
  let get_d label = try List.assoc label d with Not_found -> 0 in
  checki "counting dwell includes open span" 15 (get_d "dp_counting");
  checki "running dwell" 15 (get_d "dp_running");
  checki "offline dwell" 0 (get_d "offline")

(* Random walks over the legality matrix with random time steps on three
   cores. [dwell] and [dwell_in] must equal a reference built from the
   subscriber's event stream alone — each event closes the span its core
   spent in [from_state] since that core's previous event — plus the
   still-open span of each core's current state. *)
let prop_dwell_matches_events =
  let cores = 3 in
  QCheck.Test.make ~name:"dwell matches the event stream" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 60)
           (triple (int_bound (cores - 1)) small_nat (int_bound 500)))
        (int_bound 500))
    (fun (steps, tail) ->
      let clock, t = make ~cores () in
      let closed = Hashtbl.create 16 in
      let last = Array.make cores 0 in
      subscribe t (fun ev ->
          let key = (ev.core, state_label ev.from_state) in
          let prev = Option.value ~default:0 (Hashtbl.find_opt closed key) in
          Hashtbl.replace closed key (prev + (ev.at - last.(ev.core)));
          last.(ev.core) <- ev.at);
      List.iter
        (fun (core, pick, dt) ->
          clock := !clock + dt;
          let from = get t ~core in
          let targets = List.filter (fun to_ -> legal ~from ~to_) all_states in
          transition t ~core ~cause:Hotplug
            (List.nth targets (pick mod List.length targets)))
        steps;
      clock := !clock + tail;
      List.for_all
        (fun core ->
          let current = state_label (get t ~core) in
          let reference label =
            Option.value ~default:0 (Hashtbl.find_opt closed (core, label))
            + if label = current then !clock - last.(core) else 0
          in
          let expected =
            List.sort_uniq compare (List.map state_label all_states)
            |> List.map (fun label -> (label, reference label))
            |> List.filter (fun (_, d) -> d > 0)
          in
          dwell t ~core = expected
          && List.for_all
               (fun st -> dwell_in t ~core st = reference (state_label st))
               all_states)
        (List.init cores Fun.id))

(* A busy scenario on a real system: background data-plane traffic plus
   control-plane churn heavy enough that Tai Chi places vCPUs on data-plane
   cores, rescues lock holders and borrows CP pCPUs. Ends with the
   machine-wide audit, which must come back clean. *)
let soak policy ~seed =
  let sys = System.create ~seed policy in
  System.warmup sys;
  let until = Sim.now (System.sim sys) + Time_ns.ms 60 in
  Exp_common.start_bg_dp sys ~target:0.3 ~until;
  Exp_common.start_cp_churn sys ~period:(Time_ns.ms 1) ~work:(Time_ns.ms 6)
    ~until;
  System.advance sys (Time_ns.ms 80);
  (match System.audit sys with
  | [] -> ()
  | violations ->
      Alcotest.fail
        (Printf.sprintf "audit violations (seed %d): %s" seed
           (String.concat "; " violations)));
  let counters = Machine.counters (System.machine sys) in
  checkb "transitions flowed" true
    (Counters.get counters "core_state.transitions" > 0);
  checki "no illegal transitions" 0 (Counters.get counters "core_state.illegal")

let test_soak_taichi () =
  List.iter (fun seed -> soak Policy.taichi_default ~seed) [ 3; 17; 29 ]

let test_soak_coschedule () =
  List.iter (fun seed -> soak Policy.Naive_coschedule ~seed) [ 3; 17; 29 ]

let suite =
  [
    ("legality matrix", `Quick, test_legality_matrix);
    ("transition applies and stamps", `Quick, test_transition_applies);
    ("strict mode rejects illegal", `Quick, test_strict_rejects);
    ("permissive mode counts illegal", `Quick, test_permissive_counts);
    ("subscriber ordering deterministic", `Quick, test_subscriber_ordering);
    ("transition allocates only its event", `Quick, test_transition_words);
    ("dwell accounting", `Quick, test_dwell_accounting);
    QCheck_alcotest.to_alcotest prop_dwell_matches_events;
    ("soak: taichi audits clean", `Slow, test_soak_taichi);
    ("soak: co-schedule audits clean", `Slow, test_soak_coschedule);
  ]
