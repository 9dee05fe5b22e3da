(* The sweep determinism contract and the global-state audit behind it.

   The tentpole claim under test: running an experiment's cell grid on N
   domains produces byte-identical output (tables, progress lines) and
   byte-identical taichi-trace-v1 JSON to the sequential run at the same
   seed. That only holds if no module-level mutable state leaks between
   concurrently-running systems, so the isolation test drives two full
   systems from two domains at once and demands the exact counters a
   sequential run produces. *)

open Taichi_engine
open Taichi_hw
open Taichi_platform

(* Run a whole sweep under a buffered context: returns (output bytes,
   export JSON bytes, failure) with nothing written to the real stdout.
   A cross-cell oracle tripping at an off-default seed is part of the
   contract too — the sweep must re-raise the exact same failure at any
   job count, after the same output and harvest. *)
let run_buffered name ~seed ~jobs ~scale =
  let desc =
    match Experiments.find name with
    | Some d -> d
    | None -> Alcotest.failf "unknown experiment %s" name
  in
  let ctx =
    Run_ctx.for_cell
      (Run_ctx.with_experiment (Run_ctx.create ~tracing:true ()) name)
  in
  let failure =
    try
      Sweep.run ~jobs ctx desc ~seed ~scale;
      None
    with e -> Some (Printexc.to_string e)
  in
  ( Run_ctx.buffered_contents ctx,
    Taichi_metrics.Export.to_string (Run_ctx.runs ctx),
    failure )

let check_equivalence name ~scale () =
  List.iter
    (fun seed ->
      let out1, json1, fail1 = run_buffered name ~seed ~jobs:1 ~scale in
      let out4, json4, fail4 = run_buffered name ~seed ~jobs:4 ~scale in
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d: stdout jobs=1 vs jobs=4" name seed)
        out1 out4;
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d: export JSON jobs=1 vs jobs=4" name seed)
        json1 json4;
      Alcotest.(check (option string))
        (Printf.sprintf "%s seed %d: failure jobs=1 vs jobs=4" name seed)
        fail1 fail4;
      (match Taichi_metrics.Export.validate_string json4 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s seed %d: invalid export: %s" name seed e);
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d: output not empty" name seed)
        true
        (String.length out1 > 0))
    [ 3; 19 ]

(* --- two full systems on two domains at once ------------------------------ *)

(* One self-contained universe: mixed DP/CP load on full Tai Chi, audited
   by with_system, measured by the machine counter registry. *)
let universe seed =
  Exp_common.with_system ~seed Policy.taichi_default (fun sys ->
      let sim = System.sim sys in
      let until = Sim.now sim + Time_ns.ms 40 in
      Exp_common.start_bg_dp sys ~target:0.2 ~until;
      Exp_common.start_bg_cp sys;
      Exp_common.start_cp_churn sys ~period:(Time_ns.us 500)
        ~work:(Time_ns.us 200) ~until;
      System.advance sys (Time_ns.ms 50);
      List.sort compare
        (Counters.dump (Machine.counters (System.machine sys))))

let two_systems_concurrently () =
  let seq_a = universe 5 and seq_b = universe 6 in
  let da = Domain.spawn (fun () -> universe 5) in
  let db = Domain.spawn (fun () -> universe 6) in
  let par_a = Domain.join da and par_b = Domain.join db in
  let pp = Alcotest.(list (pair string int)) in
  Alcotest.check pp "seed 5: concurrent counters == sequential" seq_a par_a;
  Alcotest.check pp "seed 6: concurrent counters == sequential" seq_b par_b

(* --- qcheck: cell-order shuffling never changes merged output ------------- *)

(* A synthetic grid whose cells are silent and whose summarize renders in
   sorted key order: the merged output must then be a pure function of
   the cell set, whatever order the descriptor declares them in and
   however many domains run them. *)
let synth_cells = List.init 9 (fun i -> Printf.sprintf "cell-%d" i)

let synth_desc order =
  Exp_desc.make ~name:"synth" ~title:"synthetic shuffle grid"
    ~description:"qcheck shuffle property"
    ~grid:(List.map (fun key -> ({ Exp_desc.key; label = key }, key)) order)
    ~run_cell:(fun _ctx ~seed ~scale:_ _cell key -> Hashtbl.hash (seed, key))
    ~summarize:(fun ctx ~seed:_ ~scale:_ pairs ->
      List.iter
        (fun (c, v) -> Run_ctx.printf ctx "%s=%d\n" c.Exp_desc.key v)
        (List.sort
           (fun (a, _) (b, _) -> compare a.Exp_desc.key b.Exp_desc.key)
           pairs))

let synth_output order ~jobs =
  let ctx = Run_ctx.for_cell (Run_ctx.create ()) in
  Sweep.run ~jobs ctx (synth_desc order) ~seed:11 ~scale:1.0;
  Run_ctx.buffered_contents ctx

let shuffle_prop =
  let reference = synth_output synth_cells ~jobs:1 in
  QCheck.Test.make ~count:30
    ~name:"sweep: cell-order shuffle + jobs never change merged output"
    QCheck.(pair (list_of_size (Gen.return (List.length synth_cells)) int) bool)
    (fun (weights, parallel) ->
      (* Derive a permutation from the random weights. *)
      let order =
        List.map snd
          (List.sort compare
             (List.map2
                (fun w k -> ((w, k), k))
                weights synth_cells))
      in
      let jobs = if parallel then 4 else 1 in
      String.equal reference (synth_output order ~jobs))

(* --- typed grids: every cell runs with its own point ------------------ *)

(* Points that no key could produce, so a point handed to the wrong cell
   shows. *)
let point_grid =
  List.init 6 (fun i ->
      ({ Exp_desc.key = Printf.sprintf "p%d" i; label = "" }, (i * 7) + 3))

let grid_points ~jobs () =
  let seen = ref [] in
  let desc =
    Exp_desc.make ~name:"points" ~title:"typed grid points" ~description:""
      ~grid:point_grid
      ~run_cell:(fun _ctx ~seed:_ ~scale:_ cell p -> (cell.Exp_desc.key, p))
      ~summarize:(fun _ctx ~seed:_ ~scale:_ results -> seen := results)
  in
  let dropped = [ "p1"; "p4" ] in
  Sweep.run ~jobs
    ~filter:(fun c -> not (List.mem c.Exp_desc.key dropped))
    (Run_ctx.for_cell (Run_ctx.create ()))
    desc ~seed:1 ~scale:1.0;
  let results = !seen in
  let point key = Exp_desc.result point_grid key in
  Alcotest.(check (list string))
    "the kept cells ran, in grid order" [ "p0"; "p2"; "p3"; "p5" ]
    (List.map (fun (c, _) -> c.Exp_desc.key) results);
  List.iter
    (fun (c, (handed, p)) ->
      Alcotest.(check string) "run_cell got its own cell" c.Exp_desc.key handed;
      Alcotest.(check int)
        (c.Exp_desc.key ^ ": run_cell got the declared point")
        (point c.Exp_desc.key) p)
    results;
  Alcotest.(check (pair string int))
    "result finds a cell by key" ("p3", point "p3")
    (Exp_desc.result results "p3");
  Alcotest.(check bool)
    "result_opt is None for a filtered-out cell" true
    (Exp_desc.result_opt results "p1" = None)

let suite =
  [
    Alcotest.test_case "typed grid points, jobs 1" `Quick
      (grid_points ~jobs:1);
    Alcotest.test_case "typed grid points, jobs 4" `Quick
      (grid_points ~jobs:4);
    Alcotest.test_case "two systems concurrently" `Quick
      two_systems_concurrently;
    Alcotest.test_case "fig17 parallel equivalence" `Slow
      (check_equivalence "fig17" ~scale:0.05);
    Alcotest.test_case "chaos parallel equivalence" `Slow
      (check_equivalence "chaos" ~scale:0.1);
    Alcotest.test_case "overload parallel equivalence" `Slow
      (check_equivalence "overload" ~scale:0.25);
    QCheck_alcotest.to_alcotest shuffle_prop;
  ]
