(* The performance ledger: times one workload of real experiment cells
   or fleet points, end to end (--trace 0) or layer by layer (--trace 1),
   writes one JSON document under bench/ledger/_out/ and prints a result
   line as the last line of stdout.

     dune exec -- ./bench/ledger/ledger.exe --workload cp_storm \
       --seed 42 --seconds 20 --trace 0

   Every repetition is a fresh process (this executable re-run with
   --child rep), launched one at a time, so each starts from an empty
   heap and no two compete for the host's cores. See README.md. *)

module Json = Taichi_metrics.Json
module W = Workloads

let usage () =
  prerr_endline
    "usage: ledger.exe --workload \
     (cp_storm|dp_netperf|tenant_brownout|fleet_failover) [--seed N] \
     [--seconds S] [--trace 0|1]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  child : string option;  (** internal: rep | setup | drivers *)
}

let parse argv =
  let int_of s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of v } rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> go { a with seconds = s } rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--child" :: v :: rest -> go { a with child = Some v } rest
    | _ -> usage ()
  in
  go
    { workload = ""; seed = 42; seconds = 20.0; trace = false; child = None }
    (List.tl (Array.to_list argv))

(* --- JSON plumbing ----------------------------------------------------------- *)

let num = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> failwith "ledger: expected a number"

let field k j =
  match Json.member k j with
  | Some v -> v
  | None -> failwith ("ledger: missing field " ^ k)

let fnum k j = num (field k j)
let fint k j = int_of_float (fnum k j)
let fstr k j = Option.value ~default:"" (Json.to_str (field k j))
let flist k j = Option.value ~default:[] (Json.to_list (field k j))
let nums kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs)

let obj_nums = function
  | Json.Obj kv -> List.map (fun (k, v) -> (k, num v)) kv
  | _ -> []

let span_to_json (s : Ledger_core.span) =
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("parent", Json.Int s.parent);
      ("name", Json.Str s.name);
      ("start", Json.Float s.start);
      ("stop", Json.Float s.stop);
    ]

let span_of_json j =
  {
    Ledger_core.id = fint "id" j;
    parent = fint "parent" j;
    name = fstr "name" j;
    start = fnum "start" j;
    stop = fnum "stop" j;
  }

let emit j = print_endline (Json.to_string j)

(* --- children ------------------------------------------------------------------ *)

let child_rep w ~seed ~traced =
  let spans = Ledger_core.recorder ~now:Unix.gettimeofday in
  let rep = W.run_rep spans w ~traced ~seed in
  let gc = Gc.quick_stat () in
  let trace =
    match rep.W.totals with
    | None -> []
    | Some t ->
        let f = float_of_int in
        [
          ( "trace",
            nums
              (List.map (fun (k, v) -> (k, f v)) t.W.layers
              @ [
                  ("dp_ns", f t.W.dp_ns);
                  ("vcpu_ns", f t.W.vcpu_ns);
                  ("switch_ns", f t.W.switch_ns);
                  ("total_ns", f t.W.total_ns);
                  ("events_recorded", f t.W.events);
                  ("events_dropped", f t.W.dropped);
                  ("export_ns_per_event", t.W.export_s *. 1e9 /. f (max 1 t.W.events));
                ]) );
        ]
  in
  emit
    (Json.Obj
       ([
          ("wall_s", Json.Float rep.W.wall_s);
          ("summarize_s", Json.Float rep.W.summarize_s);
          ("sim_digest", Json.Str rep.W.sim_digest);
          ( "ops",
            Json.Arr
              (List.map
                 (fun (o : W.op_row) ->
                   Json.Obj
                     [
                       ("key", Json.Str o.key);
                       ("wall_s", Json.Float o.wall_s);
                       ("calib_s", Json.Float o.calib_s);
                       ("scheduled", Json.Int o.scheduled);
                       ("fired", Json.Int o.fired);
                       ("minor_words", Json.Float o.minor_words);
                       ("digest", Json.Str o.digest);
                       ("faults", Json.Arr (List.map (fun f -> Json.Str f) o.faults));
                     ])
                 rep.W.ops) );
          ( "gc",
            nums
              [
                ("minor_words", gc.Gc.minor_words);
                ("major_words", gc.Gc.major_words);
                ("major_collections", float_of_int gc.Gc.major_collections);
                ("top_heap_words", float_of_int gc.Gc.top_heap_words);
              ] );
        ]
       @ trace
       @ [ ("spans", Json.Arr (List.map span_to_json (Ledger_core.spans spans))) ]))

let child_setup w ~seed =
  let spans = Ledger_core.recorder ~now:Unix.gettimeofday in
  let systems, times, calib_s = W.setup_rounds spans w ~seed in
  emit
    (Json.Obj
       [
         ("systems", Json.Int systems);
         ("rounds_s", Json.Arr (List.map (fun t -> Json.Float t) times));
         ("calib_s", Json.Float calib_s);
         ("spans", Json.Arr (List.map span_to_json (Ledger_core.spans spans)));
       ])

let child_drivers w ~seed =
  let spans = Ledger_core.recorder ~now:Unix.gettimeofday in
  let metrics = Drivers.run spans w ~seed in
  emit
    (Json.Obj
       [
         ("metrics", nums metrics);
         ("spans", Json.Arr (List.map span_to_json (Ledger_core.spans spans)));
       ])

(* The child process running now, if any. *)
let running_child = ref None

let rec wait_child pid =
  try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait_child pid

(* A signal that ends the ledger ends its child first and waits for it,
   so no process outlives the run. *)
let stop_child_on signal =
  Sys.set_signal signal
    (Sys.Signal_handle
       (fun _ ->
         Option.iter
           (fun pid ->
             (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
             try ignore (wait_child pid) with Unix.Unix_error _ -> ())
           !running_child;
         exit 1))

(* Run this executable again in child mode, one process at a time, and
   parse the JSON object on the last line of its stdout. [None] when the
   child failed. *)
let run_child spans ~name args =
  Ledger_core.span spans name (fun () ->
      let exe = Sys.executable_name in
      let rd, wr = Unix.pipe ~cloexec:true () in
      let pid =
        Unix.create_process exe
          (Array.of_list (exe :: args))
          Unix.stdin wr Unix.stderr
      in
      running_child := Some pid;
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let out = In_channel.input_all ic in
      close_in ic;
      let wait () =
        let status = wait_child pid in
        running_child := None;
        status
      in
      let last =
        List.fold_left
          (fun acc l -> if String.trim l = "" then acc else l)
          "" (String.split_on_char '\n' out)
      in
      match wait () with
      | Unix.WEXITED 0 -> (
          match Json.parse_opt last with
          | Some j ->
              Ledger_core.adopt spans (List.map span_of_json (flist "spans" j));
              Some j
          | None -> None)
      | _ -> None)

(* --- metric tables ------------------------------------------------------------- *)

let end_to_end = [ ("wall_s", "s"); ("setup_s", "s"); ("peak_heap_mb", "MiB") ]

let per_layer =
  [
    ("engine.events_fired", "count");
    ("engine.events_scheduled", "count");
    ("engine.unfired_frac", "ratio");
    ("engine.events_per_s", "1/s");
    ("engine.after_fire_ns", "ns");
    ("engine.after_cancel_ns", "ns");
    ("engine.counters.incr_h_ns", "ns");
    ("engine.counters.lane_incr_ns", "ns");
    ("gc.minor_mwords", "Mwords");
    ("gc.minor_words_per_event", "words");
    ("gc.major_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("accel.pkt_ns.b1", "ns");
    ("accel.pkt_ns.b8", "ns");
    ("accel.pkt_ns.b32", "ns");
    ("accel.pkt_minor_words", "words");
    ("dataplane.parks", "count");
    ("dataplane.wakes", "count");
    ("dataplane.yields", "count");
    ("dataplane.resumes", "count");
    ("dataplane.busy_frac", "ratio");
    ("core.sched.placements", "count");
    ("core.sched.slice_expiries", "count");
    ("core.sched.evictions", "count");
    ("core.sched.rescues", "count");
    ("core.sched.borrows", "count");
    ("core.sched.borrow_retries", "count");
    ("core.sched.borrow_useful_frac", "ratio");
    ("core.probe.hw_triggers", "count");
    ("core.probe.hw_suppressed", "count");
    ("core.probe.hw_useful_frac", "ratio");
    ("core.probe.sw_false_positives", "count");
    ("core.probe.sw_sustained_idle", "count");
    ("core.probe.sw_false_positive_frac", "ratio");
    ("core.vcpu_frac", "ratio");
    ("core.switch_frac", "ratio");
    ("core.wsched.pop_ns.t1", "ns");
    ("core.wsched.pop_ns.t4", "ns");
    ("core.wsched.pop_ns.t16", "ns");
    ("core.wsched.pop_ns.t61", "ns");
    ("overload.samples", "count");
    ("overload.transitions", "count");
    ("overload.admitted", "count");
    ("overload.deferred", "count");
    ("overload.shed", "count");
    ("overload.place_denied", "count");
    ("overload.shed_frac", "ratio");
    ("lifecycle.admitted", "count");
    ("lifecycle.admit_refused", "count");
    ("lifecycle.admit_retries", "count");
    ("lifecycle.drain_forced", "count");
    ("metrics.quantile_observe_ns", "ns");
    ("os.kernel.context_switches", "count");
    ("os.kernel.steals", "count");
    ("os.kernel.migrations", "count");
    ("os.softirq.raised", "count");
    ("hw.core_state.transitions", "count");
    ("hw.core_state.illegal", "count");
    ("trace.events_recorded", "count");
    ("trace.events_dropped", "count");
    ("trace.overhead_frac", "ratio");
    ("metrics.export_ns_per_event", "ns");
    ("fleet.exchange.sent", "count");
    ("fleet.exchange.delivered", "count");
    ("fleet.exchange.lost", "count");
    ("fleet.rpc.sent", "count");
    ("fleet.rpc.completed", "count");
    ("fleet.rpc.success_frac", "ratio");
    ("fleet.rpc.retries", "count");
    ("fleet.rpc.timeouts", "count");
    ("fleet.failover.replaced", "count");
    ("fleet.failover.refused", "count");
    ("fleet.exchange_us_per_epoch.n4", "us");
    ("fleet.exchange_us_per_epoch.n8", "us");
    ("fleet.exchange_us_per_epoch.n16", "us");
    ("fleet.exchange_us_per_epoch.n32", "us");
    ("fleet.jobs_speedup", "ratio");
    ("platform.system_build_ms", "ms");
    ("platform.cells", "count");
    ("platform.cell_wall_max_s", "s");
    ("platform.summarize_s", "s");
  ]

(* --- repetitions ----------------------------------------------------------------- *)

type rep = {
  traced : bool;
  json : Json.t option;  (** [None]: the child process failed *)
}

let rep_ops r =
  match r.json with
  | None -> []
  | Some j ->
      List.map
        (fun o ->
          {
            Ledger_core.key = fstr "key" o;
            digest = fstr "digest" o;
            faults = List.filter_map Json.to_str (flist "faults" o);
          })
        (flist "ops" j)

let ok_reps reps = List.filter_map (fun r -> r.json) reps

let run_rep spans a ~traced =
  let json =
    run_child spans
      ~name:(if traced then "repetition (traced)" else "repetition")
      [
        "--child"; "rep"; "--workload"; a.workload; "--seed"; string_of_int a.seed;
        "--trace"; (if traced then "1" else "0");
      ]
  in
  { traced; json }

let setup spans a =
  match
    run_child spans ~name:"setup child"
      [ "--child"; "setup"; "--workload"; a.workload; "--seed"; string_of_int a.seed ]
  with
  | Some j ->
      let calib = fnum "calib_s" j in
      Some (fint "systems" j, calib, List.map num (flist "rounds_s" j))
  | None -> None

(* Rounds of fresh processes, one process at a time, until the next
   round would overrun [a.seconds] (by the mean round so far), and at
   least [min_rounds]. A round is a set-up child, then one untraced
   repetition, then (when [pairs]) one traced repetition. Spreading the
   set-up rounds over the whole run keeps one slow moment of a shared
   host from setting [setup_s] alone. *)
let repeat spans a ~pairs ~min_rounds =
  let t0 = Unix.gettimeofday () in
  let rec go reps setups rounds =
    let elapsed = Unix.gettimeofday () -. t0 in
    let est = if rounds = 0 then 0.0 else elapsed /. float_of_int rounds in
    if rounds >= min_rounds && elapsed +. est > a.seconds then
      (List.rev reps, List.rev setups)
    else
      let setups = setup spans a :: setups in
      let reps = run_rep spans a ~traced:false :: reps in
      let reps = if pairs then run_rep spans a ~traced:true :: reps else reps in
      go reps setups (rounds + 1)
  in
  go [] [] 0

(* Systems per round, then the set-up seconds of every round at the
   reference host speed and as measured; [None] if a set-up child
   failed. *)
let setup_rounds setups =
  if List.mem None setups then None
  else
    let setups = List.filter_map Fun.id setups in
    match setups with
    | (systems, _, _) :: _ ->
        Some
          ( systems,
            List.concat_map
              (fun (_, calib, rounds) -> List.map (Ledger_core.at_reference ~calib) rounds)
              setups,
            List.concat_map (fun (_, _, rounds) -> rounds) setups )
    | [] -> None

(* A repetition's wall time at the reference host speed. *)
let ref_wall j =
  Ledger_core.scaled_wall ~total:(fnum "wall_s" j)
    (List.map (fun o -> (fnum "wall_s" o, fnum "calib_s" o)) (flist "ops" j))

(* A repetition's operations at the reference host speed, and its
   summarize time scaled by the repetition's mean factor. *)
let ref_ops j =
  ("summarize", fnum "summarize_s" j *. ref_wall j /. fnum "wall_s" j)
  :: List.map
       (fun o ->
         ( fstr "key" o,
           Ledger_core.at_reference ~calib:(fnum "calib_s" o) (fnum "wall_s" o) ))
       (flist "ops" j)

(* Per-operation rows over the untraced repetitions: every wall time,
   their median, and the (deterministic) engine and allocation totals
   of the first repetition. *)
let cell_rows reps =
  match ok_reps (List.filter (fun r -> not r.traced) reps) with
  | [] -> []
  | first :: _ as all ->
      List.map
        (fun o ->
          let key = fstr "key" o in
          let walls =
            List.concat_map
              (fun j ->
                List.filter_map
                  (fun o' ->
                    if fstr "key" o' = key then Some (fnum "wall_s" o') else None)
                  (flist "ops" j))
              all
          in
          Json.Obj
            [
              ("key", Json.Str key);
              ("wall_s", Json.Float (Ledger_core.median walls));
              ("walls_s", Json.Arr (List.map (fun w -> Json.Float w) walls));
              ("events_fired", field "fired" o);
              ("events_scheduled", field "scheduled" o);
              ("minor_words", field "minor_words" o);
            ])
        (flist "ops" first)

(* --- the two run kinds --------------------------------------------------------- *)

(* A metric's value, with its quartiles and sample count when it is a
   median over samples. *)
type value = { v : float; spread : (float * float * int) option }

let of_samples = function
  | [] -> None
  | samples ->
      let q1, m, q3 = Ledger_core.quartiles samples in
      Some { v = m; spread = Some (q1, q3, List.length samples) }

let mib_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0
let peak_heap_mb j = mib_of_words (fnum "top_heap_words" (field "gc" j))

let end_to_end_metrics spans a =
  let reps, setups = repeat spans a ~pairs:false ~min_rounds:3 in
  let ok = ok_reps reps in
  let setup = setup_rounds setups in
  let values =
    [
      (* The value sums per-operation medians; the quartiles are those of
         the repetitions' totals. *)
      ( "wall_s",
        Option.map
          (fun s -> { s with v = Ledger_core.op_medians (List.map ref_ops ok) })
          (of_samples (List.map ref_wall ok)) );
      ("setup_s", Option.bind setup (fun (_, rounds, _) -> of_samples rounds));
      ("peak_heap_mb", of_samples (List.map peak_heap_mb ok));
    ]
  in
  let extra =
    [
      ( "setup_rounds_s",
        Json.Arr
          (match setup with
          | Some (_, _, raw) -> List.map (fun t -> Json.Float t) raw
          | None -> []) );
      ("setup_systems", Json.Int (match setup with Some (n, _, _) -> n | None -> 0));
    ]
  in
  (reps, values, extra)

let per_layer_metrics spans a (w : W.t) =
  let reps, setups = repeat spans a ~pairs:true ~min_rounds:1 in
  let untraced = ok_reps (List.filter (fun r -> not r.traced) reps) in
  let traced = ok_reps (List.filter (fun r -> r.traced) reps) in
  let drivers =
    match
      run_child spans ~name:"drivers child"
        [ "--child"; "drivers"; "--workload"; a.workload; "--seed"; string_of_int a.seed ]
    with
    | Some j -> obj_nums (field "metrics" j)
    | None -> []
  in
  let build_ms =
    match setup_rounds setups with
    | Some (systems, (_ :: _ as rounds), _) ->
        [
          ( "platform.system_build_ms",
            Ledger_core.median rounds *. 1000.0 /. float_of_int systems );
        ]
    | _ -> []
  in
  let values =
    match (untraced, traced) with
    | u :: _, t :: _ ->
        let ops = flist "ops" u in
        let sum k = List.fold_left (fun acc o -> acc +. fnum k o) 0.0 ops in
        let fired = sum "fired" and scheduled = sum "scheduled" in
        (* Raw times: the calibration pass runs in the measured process
           and reads up to 12% slower after traced operations, so
           rescaling would hide part of the tracing cost. *)
        let wall = Ledger_core.median (List.map (fnum "wall_s") untraced) in
        let overhead =
          Ledger_core.median (List.map (fnum "wall_s") traced) /. wall -. 1.0
        in
        let gc k = fnum k (field "gc" u) in
        let tr = obj_nums (field "trace" t) in
        let c k = List.assoc k tr in
        let ratio a b = if b = 0.0 then 0.0 else a /. b in
        [
          ("engine.events_fired", fired);
          ("engine.events_scheduled", scheduled);
          ("engine.unfired_frac", 1.0 -. ratio fired scheduled);
          ("engine.events_per_s", ratio fired wall);
          ("gc.minor_mwords", gc "minor_words" /. 1e6);
          ("gc.minor_words_per_event", ratio (gc "minor_words") fired);
          ("gc.major_mwords", gc "major_words" /. 1e6);
          ("gc.major_collections", gc "major_collections");
          ("dataplane.busy_frac", ratio (c "dp_ns") (c "total_ns"));
          ("core.vcpu_frac", ratio (c "vcpu_ns") (c "total_ns"));
          ("core.switch_frac", ratio (c "switch_ns") (c "total_ns"));
          ( "core.sched.borrow_useful_frac",
            ratio (c "core.sched.borrows")
              (c "core.sched.borrows" +. c "core.sched.borrow_retries") );
          ( "core.probe.hw_useful_frac",
            ratio (c "core.probe.hw_triggers")
              (c "core.probe.hw_triggers" +. c "core.probe.hw_suppressed") );
          ( "core.probe.sw_false_positive_frac",
            ratio (c "core.probe.sw_false_positives")
              (c "core.probe.sw_false_positives" +. c "core.probe.sw_sustained_idle") );
          ( "overload.shed_frac",
            ratio (c "overload.shed")
              (c "overload.admitted" +. c "overload.deferred" +. c "overload.shed") );
          ("fleet.rpc.success_frac", ratio (c "fleet.rpc.completed") (c "fleet.rpc.sent"));
          ("trace.events_recorded", c "events_recorded");
          ("trace.events_dropped", c "events_dropped");
          ("trace.overhead_frac", overhead);
          ("metrics.export_ns_per_event", c "export_ns_per_event");
          ("platform.cells", float_of_int (List.length (W.op_keys w ~seed:a.seed)));
          ( "platform.cell_wall_max_s",
            List.fold_left (fun acc o -> Float.max acc (fnum "wall_s" o)) 0.0 ops );
          ("platform.summarize_s", fnum "summarize_s" u);
        ]
        @ List.filter (fun (k, _) -> List.mem_assoc k per_layer) tr
    | _ -> []
  in
  let all = values @ drivers @ build_ms in
  let values =
    List.map
      (fun (k, _) ->
        (k, Option.map (fun v -> { v; spread = None }) (List.assoc_opt k all)))
      per_layer
  in
  let extra =
    [
      ( "traced_sim_digest",
        Json.Str (match traced with t :: _ -> fstr "sim_digest" t | [] -> "") );
    ]
  in
  (reps, values, extra)

(* --- output ---------------------------------------------------------------------- *)

let out_dir = Filename.concat "bench" (Filename.concat "ledger" "_out")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_document path doc =
  try
    mkdir_p (Filename.dirname path);
    Out_channel.with_open_text path (fun oc ->
        Json.to_channel oc doc;
        output_char oc '\n');
    Printf.printf "ledger document: %s\n" path
  with Sys_error e -> Printf.eprintf "ledger: could not write %s: %s\n%!" path e

let units = end_to_end @ per_layer

let metric_json name { v; spread } =
  Json.Obj
    (("value", Json.Float v)
    :: ("unit", Json.Str (List.assoc name units))
    ::
    (match spread with
    | Some (q1, q3, n) ->
        [ ("q1", Json.Float q1); ("q3", Json.Float q3); ("n", Json.Int n) ]
    | None -> []))

let print_summary a (w : W.t) ~reps ~values ~failures ~attempted ~sim_digest =
  Printf.printf "ledger: workload=%s seed=%d trace=%d repetitions=%d nproc=%d\n"
    w.name a.seed (Bool.to_int a.trace) (List.length reps) W.ncpu;
  Printf.printf "  %-36s %-6s %14s %14s %14s %3s\n" "metric" "unit" "value" "q1" "q3"
    "n";
  List.iter
    (fun (name, value) ->
      let unit = List.assoc name units in
      match value with
      | None -> Printf.printf "  %-36s %-6s %14s\n" name unit "MISSING"
      | Some { v; spread = None } -> Printf.printf "  %-36s %-6s %14.6g\n" name unit v
      | Some { v; spread = Some (q1, q3, n) } ->
          Printf.printf "  %-36s %-6s %14.6g %14.6g %14.6g %3d\n" name unit v q1 q3 n)
    values;
  let failed = List.length failures in
  Printf.printf "  %-36s %-6s %14.6g   (%d of %d operations failed)\n" "fail_frac"
    "ratio" (Ledger_core.frac failed attempted) failed attempted;
  Printf.printf "  sim_digest %s\n" sim_digest;
  List.iter (fun (k, why) -> Printf.printf "  FAILED %s: %s\n" k why) failures

let orchestrate a (w : W.t) =
  let spans = Ledger_core.recorder ~now:Unix.gettimeofday in
  let reps, values, extra =
    Ledger_core.span spans ("workload " ^ w.name) (fun () ->
        if a.trace then per_layer_metrics spans a w else end_to_end_metrics spans a)
  in
  let attempted, failures =
    Ledger_core.account ~expected:(W.op_keys w ~seed:a.seed)
      (List.map (fun r -> { Ledger_core.traced = r.traced; ops = rep_ops r }) reps)
  in
  let failed = List.length failures in
  let measured = List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) values in
  let correct = failed = 0 && List.length measured = List.length values in
  let sim_digest =
    match ok_reps (List.filter (fun r -> not r.traced) reps) with
    | j :: _ -> fstr "sim_digest" j
    | [] -> ""
  in
  let all_spans = Ledger_core.spans spans in
  let t0 = match all_spans with s :: _ -> s.start | [] -> 0.0 in
  let doc =
    Json.Obj
      ([
         ("schema", Json.Str "taichi-ledger-v1");
         ("workload", Json.Str w.name);
         ("seed", Json.Int a.seed);
         ("trace", Json.Bool a.trace);
         ("seconds", Json.Float a.seconds);
         ("nproc", Json.Int W.ncpu);
         ("metrics", Json.Obj (List.map (fun (k, v) -> (k, metric_json k v)) measured));
         ( "missing_metrics",
           Json.Arr
             (List.filter_map
                (fun (k, v) -> if v = None then Some (Json.Str k) else None)
                values) );
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("fail_frac", Json.Float (Ledger_core.frac failed attempted));
         ( "failures",
           Json.Arr
             (List.map
                (fun (k, why) ->
                  Json.Obj [ ("key", Json.Str k); ("reason", Json.Str why) ])
                failures) );
         ("sim_digest", Json.Str sim_digest);
         ( "repetitions",
           Json.Arr
             (List.map
                (fun r ->
                  Json.Obj
                    (("traced", Json.Bool r.traced)
                    ::
                    (match r.json with
                    | Some j ->
                        [
                          ("wall_s", field "wall_s" j);
                          ("wall_ref_s", Json.Float (ref_wall j));
                          ( "calib_ms",
                            Json.Float
                              (1000.0
                              *. Ledger_core.median
                                   (List.map (fnum "calib_s") (flist "ops" j))) );
                          ("peak_heap_mb", Json.Float (peak_heap_mb j));
                        ]
                    | None -> [ ("failed", Json.Bool true) ])))
                reps) );
         ("cells", Json.Arr (cell_rows reps));
       ]
      @ extra
      @ [
          ( "spans",
            Json.Arr
              (List.map
                 (fun (s : Ledger_core.span) ->
                   Json.Obj
                     [
                       ("id", Json.Int s.id);
                       ("parent", Json.Int s.parent);
                       ("name", Json.Str s.name);
                       ("start_s", Json.Float (s.start -. t0));
                       ("dur_s", Json.Float (s.stop -. s.start));
                       ("self_s", Json.Float (Ledger_core.self_time all_spans s));
                     ])
                 all_spans) );
        ])
  in
  print_summary a w ~reps ~values ~failures ~attempted ~sim_digest;
  write_document
    (Filename.concat out_dir
       (Printf.sprintf "%s-seed%d-trace%d.json" w.name a.seed (Bool.to_int a.trace)))
    doc;
  emit
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (k, { v; _ }) ->
                  ( k,
                    Json.Obj
                      [ ("value", Json.Float v); ("unit", Json.Str (List.assoc k units)) ]
                  ))
                measured) );
       ]);
  if not correct then exit 1

let () =
  let a = parse Sys.argv in
  let w = match W.find a.workload with Some w -> w | None -> usage () in
  match a.child with
  | None ->
      List.iter stop_child_on [ Sys.sigterm; Sys.sigint; Sys.sighup ];
      orchestrate a w
  | Some "rep" -> child_rep w ~seed:a.seed ~traced:a.trace
  | Some "setup" -> child_setup w ~seed:a.seed
  | Some "drivers" -> child_drivers w ~seed:a.seed
  | Some _ -> usage ()
