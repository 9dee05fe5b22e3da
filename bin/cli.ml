(* Cmdliner front end for the experiment suite. *)

open Cmdliner
module P = Taichi_platform

let experiment_names = List.map P.Exp_desc.name P.Experiments.all

let name_arg =
  let doc =
    "Experiment id: " ^ String.concat ", " experiment_names
    ^ ", or 'all'. Omit with $(b,--list)."
  in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)

let seed_arg =
  let doc = "Root random seed (experiments are bit-reproducible per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let scale_arg =
  let doc =
    "Duration scale factor: 1.0 runs the full experiment, smaller values \
     shrink simulated time for quick checks."
  in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~doc)

let jobs_arg =
  let doc =
    "Run experiment cells on $(docv) OCaml domains. Output, oracles and \
     trace exports are byte-identical at any value (cells merge in \
     declaration order); 1 runs inline."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let list_arg =
  let doc = "List the registered experiments with their cell counts." in
  Arg.(value & flag & info [ "list" ] ~doc)

let trace_arg =
  let doc =
    "Collect the scheduler-wide trace and print per-run occupancy \
     timelines and counters after the experiment."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let trace_json_arg =
  let doc =
    "Collect the scheduler-wide trace and export every run as JSON \
     (schema taichi-trace-v1) to $(docv). Deterministic for a fixed seed \
     and any $(b,--jobs)."
  in
  Arg.(value & opt (some string) None & info [ "trace-json" ] ~docv:"FILE" ~doc)

let chaos_profile_arg =
  let doc =
    "Restrict the chaos experiment to one fault profile ("
    ^ String.concat ", "
        (List.map fst Taichi_faults.Injector.profiles)
    ^ "). Defaults to the full matrix."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos-profile" ] ~docv:"PROFILE" ~doc)

let overload_governor_arg =
  let doc =
    "Restrict the overload experiment to one governor setting ($(b,on) or \
     $(b,off)). Defaults to both."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "overload" ] ~docv:"GOVERNOR" ~doc)

let aggressor_arg =
  let doc =
    "Restrict the multitenant experiment to the aggressor ($(b,on): CP \
     storm / DP burst cells) or contention-only ($(b,off): saturation / \
     idle cells) half of the grid. Defaults to both."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "aggressor" ] ~docv:"AGGRESSOR" ~doc)

let churn_profile_arg =
  let doc =
    "Restrict the churn experiment to one churn profile ($(b,steady): \
     arrival waves and forced departure, $(b,flap): thrash / refusal / \
     determinism repeat, $(b,chaos): chaos-under-churn). Defaults to the \
     full grid."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "churn-profile" ] ~docv:"PROFILE" ~doc)

let nics_arg =
  let doc =
    "Restrict the fleet experiment to the cells whose rack is $(docv) \
     NICs wide (8 or 16; the determinism repeat rides with the 8-NIC \
     cells). Defaults to every width."
  in
  Arg.(value & opt (some int) None & info [ "nics" ] ~docv:"N" ~doc)

let failover_arg =
  let doc =
    "Restrict the fleet experiment to one failover setting ($(b,on) or \
     $(b,off)). Defaults to both."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "failover" ] ~docv:"FAILOVER" ~doc)

let list_experiments () =
  Printf.printf "%-11s %5s  %s\n" "name" "cells" "description";
  List.iter
    (fun d ->
      Printf.printf "%-11s %5d  %s\n" (P.Exp_desc.name d)
        (P.Exp_desc.cell_count d)
        (P.Exp_desc.description d))
    P.Experiments.all

let print_trace_report runs =
  List.iter
    (fun (run : Taichi_metrics.Export.run) ->
      Format.printf "@.trace: %s / %s (seed %d)@." run.experiment run.policy
        run.seed;
      Format.printf "%a@." Taichi_metrics.Timeline.pp run.timeline;
      Format.printf "counters:@.";
      List.iter
        (fun (name, v) -> Format.printf "  %-32s %d@." name v)
        run.counters)
    runs

(* Exit codes: 0 success, 1 usage / export error, 2 uncaught experiment
   failure (Cmdliner), 3 post-experiment audit violation — a run that
   produced output but left the machine in an incoherent state must be
   distinguishable from an infrastructure error in CI. *)
let audit_exit_code = 3

let report_audit_failures failures =
  List.iter
    (fun (f : P.Run_ctx.audit_failure) ->
      Printf.eprintf "AUDIT FAILURE: %s (seed %d):\n" f.experiment f.seed;
      List.iter (Printf.eprintf "  - %s\n") f.violations)
    failures;
  Printf.eprintf "%d run(s) failed the post-experiment audit\n"
    (List.length failures)

(* The narrowing flags become plain cell filters on the relevant
   descriptor — no module state anywhere. *)
let filter_for ~chaos_profile ~overload_governor ~aggressor ~churn_profile
    ~fleet_nics ~fleet_failover desc =
  match P.Exp_desc.name desc with
  | "chaos" -> (
      match chaos_profile with
      | Some p -> P.Exp_chaos.profile_filter p
      | None -> fun _ -> true)
  | "overload" -> (
      match overload_governor with
      | Some g -> P.Exp_overload.governor_filter g
      | None -> fun _ -> true)
  | "multitenant" -> (
      match aggressor with
      | Some a -> P.Exp_multitenant.aggressor_filter a
      | None -> fun _ -> true)
  | "churn" -> (
      match churn_profile with
      | Some p -> P.Exp_churn.profile_filter p
      | None -> fun _ -> true)
  | "fleet" ->
      let by_nics =
        match fleet_nics with
        | Some n -> P.Exp_fleet.nics_filter n
        | None -> fun _ -> true
      in
      let by_failover =
        match fleet_failover with
        | Some s -> P.Exp_fleet.failover_filter s
        | None -> fun _ -> true
      in
      fun cell -> by_nics cell && by_failover cell
  | _ -> fun _ -> true

let run name seed scale jobs list trace trace_json chaos_profile
    overload_governor aggressor churn_profile fleet_nics fleet_failover =
  if list then begin
    list_experiments ();
    0
  end
  else
    match name with
    | None ->
        Printf.eprintf "missing EXPERIMENT (try --list)\n";
        1
    | Some name -> (
        let tracing = trace || trace_json <> None in
        (* Collect audit violations instead of aborting mid-batch: every
           experiment still runs, then the process exits with the distinct
           audit status below. *)
        let ctx = P.Run_ctx.create ~tracing ~audit:P.Run_ctx.Collect () in
        let run_desc desc =
          let ctx = P.Run_ctx.with_experiment ctx (P.Exp_desc.name desc) in
          P.Sweep.run ~jobs
            ~filter:
              (filter_for ~chaos_profile ~overload_governor ~aggressor
                 ~churn_profile ~fleet_nics ~fleet_failover desc)
            ctx desc ~seed ~scale
        in
        let status =
          if name = "all" then begin
            List.iter run_desc P.Experiments.all;
            0
          end
          else
            match P.Experiments.find name with
            | Some desc ->
                run_desc desc;
                0
            | None ->
                Printf.eprintf "unknown experiment %s" name;
                (match P.Experiments.closest name with
                | Some (suggestion, cells) ->
                    Printf.eprintf " (did you mean %s, %d cells?)" suggestion
                      cells
                | None -> ());
                Printf.eprintf "; known: %s\n"
                  (String.concat ", " experiment_names);
                1
        in
        let status =
          if status = 0 && tracing then begin
            let runs = P.Run_ctx.runs ctx in
            if trace then print_trace_report runs;
            (* Export failures must not look like a successful run: report
               and fail cleanly rather than dying on an uncaught
               Sys_error. *)
            match trace_json with
            | Some path -> (
                try
                  Taichi_metrics.Export.write_file path runs;
                  Printf.printf "trace export: %d run(s) written to %s\n"
                    (List.length runs) path;
                  status
                with Sys_error msg ->
                  Printf.eprintf "cannot write trace export: %s\n" msg;
                  1)
            | None -> status
          end
          else status
        in
        match P.Run_ctx.audit_failures ctx with
        | [] -> status
        | failures ->
            report_audit_failures failures;
            audit_exit_code)

let cmd =
  let doc = "Reproduce the Tai Chi (SOSP'25) evaluation on the simulator" in
  let info = Cmd.info "taichi_sim" ~doc in
  Cmd.v info
    Term.(
      const run $ name_arg $ seed_arg $ scale_arg $ jobs_arg $ list_arg
      $ trace_arg $ trace_json_arg $ chaos_profile_arg $ overload_governor_arg
      $ aggressor_arg $ churn_profile_arg $ nics_arg $ failover_arg)

let main () = exit (Cmd.eval' cmd)
