(* Golden digests: run every registered experiment in-process through
   Sweep.run and print one "<experiment> <md5>" line per experiment.

   By default the digest covers the experiment's stdout, captured in a
   buffered run context with tracing off. With --trace the run is traced
   and the digest covers its taichi-trace-v1 export instead; each export
   goes to a temporary file that is digested and deleted before the next
   experiment runs, so at most one export is on disk at a time.

     golden.exe [--trace] --seed N --scale F [EXPERIMENT...]

   With no experiment names it digests all 22 registered experiments;
   with names it digests only those, in registry order. An unknown
   name exits 2.

   Cells run on two sweep domains; output and exports are byte-identical
   at any domain count (DESIGN.md §11), so only wall time depends on it.
   test/golden/dune diffs these lines against the committed *.expected
   files; `make golden-update` re-promotes them. *)

open Taichi_platform

let digest ~trace ~seed ~scale desc =
  let ctx =
    Run_ctx.for_cell
      (Run_ctx.with_experiment
         (Run_ctx.create ~tracing:trace ())
         (Exp_desc.name desc))
  in
  Sweep.run ~jobs:2 ctx desc ~seed ~scale;
  if not trace then
    Digest.to_hex (Digest.string (Run_ctx.buffered_contents ctx))
  else
    let path = Filename.temp_file "golden-" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Taichi_metrics.Export.write_file path (Run_ctx.runs ctx);
        Digest.to_hex (Digest.file path))

let usage = "golden.exe [--trace] --seed N --scale F [EXPERIMENT...]"

let () =
  let trace = ref false and seed = ref None and scale = ref None in
  let names = ref [] in
  let specs =
    [
      ("--trace", Arg.Set trace, " digest the trace export, not stdout");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N root seed");
      ("--scale", Arg.Float (fun f -> scale := Some f), "F duration scale");
    ]
  in
  Arg.parse specs (fun a -> names := a :: !names) usage;
  (match List.find_opt (fun n -> Option.is_none (Experiments.find n)) !names with
  | Some n ->
      Printf.eprintf "golden.exe: unknown experiment %s\n" n;
      exit 2
  | None -> ());
  let chosen desc =
    match !names with
    | [] -> true
    | names -> List.mem (Exp_desc.name desc) names
  in
  match (!seed, !scale) with
  | Some seed, Some scale ->
      List.iter
        (fun desc ->
          if chosen desc then
            Printf.printf "%s %s\n%!" (Exp_desc.name desc)
              (digest ~trace:!trace ~seed ~scale desc))
        Experiments.all
  | _ ->
      Arg.usage specs usage;
      exit 2
