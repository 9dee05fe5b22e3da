(* Unit tests for the ledger's pure helpers. *)

open Ledger_core

let close = Alcotest.float 1e-9

let check_quartiles name values (q1, m, q3) =
  let a, b, c = quartiles values in
  Alcotest.check close (name ^ " q1") q1 a;
  Alcotest.check close (name ^ " median") m b;
  Alcotest.check close (name ^ " q3") q3 c

(* Reference values from Python's statistics.quantiles(v, n=4). *)
let test_quartiles () =
  check_quartiles "odd" [ 5.; 1.; 3.; 2.; 4. ] (1.5, 3.0, 4.5);
  check_quartiles "even" [ 4.; 1.; 3.; 2. ] (1.25, 2.5, 3.75);
  check_quartiles "seven" [ 1.; 2.; 3.; 4.; 5.; 6.; 7. ] (2.0, 4.0, 6.0);
  check_quartiles "pair" [ 2.; 1. ] (0.75, 1.5, 2.25);
  check_quartiles "single" [ 7. ] (7.0, 7.0, 7.0);
  Alcotest.check close "median even" 2.5 (median [ 1.; 2.; 3.; 4. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Ledger_core.quartiles: no values")
    (fun () -> ignore (quartiles []))

let test_layer_counts () =
  let dump =
    [
      ("churn.admit_refused", 3);
      ("churn.admit_refused.backpressure", 3);
      ("dp.parks", 7);
      ("fleet.exchange.lost_crash", 2);
      ("fleet.exchange.lost_partition", 5);
      ("overload.shed.critical", 1);
      ("overload.shed.deferrable", 4);
      ("sched.evictions.halt", 10);
      ("sched.evictions.probe", 6);
      ("tenant.0.overload.shed.deferrable", 4);
      ("tenant.1.dp.parks", 7);
    ]
  in
  let counts = layer_counts dump in
  let get k = List.assoc k counts in
  Alcotest.(check int) "exact name" 7 (get "dataplane.parks");
  Alcotest.(check int) "breakdown not double-counted" 3 (get "lifecycle.admit_refused");
  Alcotest.(check int) "prefix sum" 16 (get "core.sched.evictions");
  Alcotest.(check int) "tenant lanes skipped" 5 (get "overload.shed");
  Alcotest.(check int) "underscore prefix" 7 (get "fleet.exchange.lost");
  Alcotest.(check int) "absent counter" 0 (get "os.kernel.steals");
  Alcotest.(check int) "table order" (List.length layer_counters) (List.length counts)

let ok key = { key; digest = "d-" ^ key; faults = [] }
let keys = [ "a"; "b" ]
let clean traced = { traced; ops = List.map ok keys }

let failed_keys reps = List.map fst (snd (account ~expected:keys reps))

let test_account_clean () =
  let attempted, failures = account ~expected:keys [ clean false; clean false; clean true ] in
  Alcotest.(check int) "attempted" 6 attempted;
  Alcotest.(check int) "failed" 0 (List.length failures)

let with_op rep key f =
  { rep with ops = List.map (fun o -> if o.key = key then f o else o) rep.ops }

let test_account_tamper () =
  let bad_digest o = { o with digest = "tampered" } in
  Alcotest.(check (list string)) "one repetition's digest differs" [ "b" ]
    (failed_keys [ clean false; with_op (clean false) "b" bad_digest ]);
  Alcotest.(check (list string)) "traced digest differs" [ "a" ]
    (failed_keys [ clean false; with_op (clean true) "a" bad_digest ]);
  let illegal =
    faults ~exn:None ~oracle:None ~audit:[] ~illegal:1 ~lost:0
  in
  Alcotest.(check (list string)) "core_state.illegal = 1" [ "a" ]
    (failed_keys [ with_op (clean false) "a" (fun o -> { o with faults = illegal }) ]);
  let each_kind =
    [
      faults ~exn:(Some "Not_found") ~oracle:None ~audit:[] ~illegal:0 ~lost:0;
      faults ~exn:None ~oracle:(Some "share off by 9%") ~audit:[] ~illegal:0 ~lost:0;
      faults ~exn:None ~oracle:None ~audit:[ "core 3 backing" ] ~illegal:0 ~lost:0;
      faults ~exn:None ~oracle:None ~audit:[] ~illegal:0 ~lost:1;
    ]
  in
  List.iter
    (fun f ->
      Alcotest.(check int) "one fault kind" 1 (List.length f);
      Alcotest.(check (list string)) (List.hd f) [ "b" ]
        (failed_keys [ with_op (clean false) "b" (fun o -> { o with faults = f }) ]))
    each_kind;
  Alcotest.(check (list string)) "no fault" []
    (faults ~exn:None ~oracle:None ~audit:[] ~illegal:0 ~lost:0);
  Alcotest.(check (list string)) "missing op" [ "b" ]
    (failed_keys [ clean false; { traced = false; ops = [ ok "a" ] } ]);
  Alcotest.(check (list string)) "failed child process" [ "a"; "b" ]
    (failed_keys [ clean false; { traced = false; ops = [] } ])

let test_reference_speed () =
  let r = reference_calib_s in
  Alcotest.check close "same speed" 3.0 (at_reference ~calib:r 3.0);
  Alcotest.check close "host twice as slow" 1.5 (at_reference ~calib:(2.0 *. r) 3.0);
  (* One op on a host at reference speed, one (three times longer) on a
     host twice as slow: factors 1 and 0.5, weighted 1:3. *)
  Alcotest.check close "wall-weighted factor" (8.0 *. 0.625)
    (scaled_wall ~total:8.0 [ (1.0, r); (3.0, 2.0 *. r) ]);
  Alcotest.check close "no op time" 8.0 (scaled_wall ~total:8.0 []);
  (* "a" is slow in the second repetition, "b" in the third; neither
     slow moment reaches the sum of medians (1 + 2). *)
  Alcotest.check close "per-op medians" 3.0
    (op_medians
       [
         [ ("a", 1.0); ("b", 2.0) ];
         [ ("a", 9.0); ("b", 2.0) ];
         [ ("a", 1.0); ("b", 9.0) ];
       ]);
  Alcotest.check close "no repetitions" 0.0 (op_medians [])

let test_spans () =
  let clock = ref 0.0 in
  let tick d = clock := !clock +. d in
  let r = recorder ~now:(fun () -> !clock) in
  span r "workload" (fun () ->
      tick 1.0;
      span r "rep" (fun () ->
          tick 2.0;
          adopt r
            [
              { id = 0; parent = -1; name = "cell"; start = 1.5; stop = 2.5 };
              { id = 1; parent = 0; name = "inner"; start = 1.5; stop = 2.0 };
            ];
          tick 1.0);
      tick 0.5);
  let all = spans r in
  let find n = List.find (fun s -> s.name = n) all in
  Alcotest.(check int) "adopted under rep" (find "rep").id (find "cell").parent;
  Alcotest.(check int) "adopted tree kept" (find "cell").id (find "inner").parent;
  Alcotest.check close "workload self" 1.5 (self_time all (find "workload"));
  Alcotest.check close "rep self" 2.0 (self_time all (find "rep"));
  Alcotest.check close "cell self" 0.5 (self_time all (find "cell"))

let () =
  Alcotest.run "ledger"
    [
      ( "ledger",
        [
          Alcotest.test_case "ledger quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "ledger counter prefixes into layers" `Quick test_layer_counts;
          Alcotest.test_case "ledger clean repetitions" `Quick test_account_clean;
          Alcotest.test_case "ledger tampered repetitions fail" `Quick test_account_tamper;
          Alcotest.test_case "ledger host-speed rescaling" `Quick test_reference_speed;
          Alcotest.test_case "ledger span self time" `Quick test_spans;
        ] );
    ]
