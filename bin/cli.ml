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

(* The narrowing flags, as the chosen (flag, value filter) pairs.
   --help lists exactly the values each accepts, and Cmdliner rejects any
   other before anything runs (exit 124). *)
let narrowing =
  List.fold_right
    (fun (n : P.Experiments.narrowing) rest ->
      let doc =
        Printf.sprintf "%s $(docv) must be %s. Defaults to every cell." n.doc
          (Arg.doc_alts_enum n.values)
      in
      let arg =
        Arg.(
          value
          & opt (some (enum n.values)) None
          & info [ n.flag ] ~docv:(String.uppercase_ascii n.flag) ~doc)
      in
      let add keep rest =
        match keep with Some keep -> (n, keep) :: rest | None -> rest
      in
      Term.(const add $ arg $ rest))
    P.Experiments.narrowings (Term.const [])

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

(* Exit codes: 0 success; 1 a usage error of ours (a missing or unknown
   experiment, a refused narrowing) or an export error; 124 a bad flag
   value (Cmdliner); 125 an uncaught exception, which is how a failed
   oracle ends a run today (Cmdliner); 3 a post-experiment audit
   violation — a run that produced output but left the machine in an
   incoherent state must be distinguishable from an infrastructure error
   in CI. *)
let audit_exit_code = 3

let report_audit_failures failures =
  List.iter
    (fun (f : P.Run_ctx.audit_failure) ->
      Printf.eprintf "AUDIT FAILURE: %s (seed %d):\n" f.experiment f.seed;
      List.iter (Printf.eprintf "  - %s\n") f.violations)
    failures;
  Printf.eprintf "%d run(s) failed the post-experiment audit\n"
    (List.length failures)

let unknown_experiment name =
  Printf.eprintf "unknown experiment %s" name;
  (match P.Experiments.closest name with
  | Some (suggestion, cells) ->
      Printf.eprintf " (did you mean %s, %d cells?)" suggestion cells
  | None -> ());
  Printf.eprintf "; known: %s\n" (String.concat ", " experiment_names)

let run_descs descs ~seed ~scale ~jobs ~trace ~trace_json narrowing =
  let tracing = trace || trace_json <> None in
  (* Collect audit violations instead of aborting mid-batch: every
     experiment still runs, then the process exits with the distinct audit
     status below. *)
  let ctx = P.Run_ctx.create ~tracing ~audit:P.Run_ctx.Collect () in
  List.iter
    (fun desc ->
      P.Sweep.run ~jobs
        ~filter:(P.Experiments.filter_for narrowing desc)
        (P.Run_ctx.with_experiment ctx (P.Exp_desc.name desc))
        desc ~seed ~scale)
    descs;
  let runs = P.Run_ctx.runs ctx in
  if trace then print_trace_report runs;
  let status =
    (* Export failures must not look like a successful run: report and
       fail cleanly rather than dying on an uncaught Sys_error. *)
    match trace_json with
    | Some path -> (
        try
          Taichi_metrics.Export.write_file path runs;
          Printf.printf "trace export: %d run(s) written to %s\n"
            (List.length runs) path;
          0
        with Sys_error msg ->
          Printf.eprintf "cannot write trace export: %s\n" msg;
          1)
    | None -> 0
  in
  match P.Run_ctx.audit_failures ctx with
  | [] -> status
  | failures ->
      report_audit_failures failures;
      audit_exit_code

let run name seed scale jobs list trace trace_json narrowing =
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
        let descs =
          if name = "all" then Some P.Experiments.all
          else Option.map (fun d -> [ d ]) (P.Experiments.find name)
        in
        match (descs, P.Experiments.refusal narrowing name) with
        | None, _ ->
            unknown_experiment name;
            1
        | Some _, Some why ->
            Printf.eprintf "taichi_sim: %s\n" why;
            1
        | Some descs, None ->
            run_descs descs ~seed ~scale ~jobs ~trace ~trace_json narrowing)

let cmd =
  let doc = "Reproduce the Tai Chi (SOSP'25) evaluation on the simulator" in
  let info = Cmd.info "taichi_sim" ~doc in
  Cmd.v info
    Term.(
      const run $ name_arg $ seed_arg $ scale_arg $ jobs_arg $ list_arg
      $ trace_arg $ trace_json_arg $ narrowing)

let main () = exit (Cmd.eval' cmd)
