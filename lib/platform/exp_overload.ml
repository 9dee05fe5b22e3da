open Taichi_engine
open Taichi_os
open Taichi_metrics
open Taichi_core
open Exp_common

let densities = [ 1.0; 2.0; 4.0 ]
let max_density = 4.0

(* Bounded-ladder oracle: a healthy run is a handful of escalations and
   the matching relaxes; anything past this is flapping. *)
let max_transitions = 16

type outcome = {
  density : float;
  governor : bool;
  p99_us : float;
  guard : Slo.verdict;
  startup_ms : float;
  vms_done : int;
  vms_total : int;
  transitions : int;
  escalations : int;
  max_level : string;
  final_level : string;
  shed_critical : int;
  shed_standard : int;
  shed_deferrable : int;
  deferred : int;
  held : int;
  fingerprint : string;
}

let measure ctx ~seed ~scale ~density ~governor =
  let config =
    (* Both cells run the no-hardware-probe ablation: without the probe's
       microsecond eviction, DP recovery rides on slice expiry, so CP
       placement pressure actually reaches the DP tail — the regime where
       admission control has something to save. *)
    let c = Config.no_hw_probe Config.default in
    if governor then Config.with_overload c else c
  in
  with_system ~ctx ~seed (Policy.Taichi config) (fun sys ->
      let sim = System.sim sys in
      let counters = Taichi_hw.Machine.counters (System.machine sys) in
      let tc = Option.get (System.taichi sys) in
      let ov = Taichi.overload tc in
      (* Track the deepest rung the ladder reached. *)
      let deepest = ref Overload.Normal in
      (match ov with
      | Some ov ->
          Overload.on_transition ov (fun _ to_ ->
              if Overload.rank to_ > Overload.rank !deepest then deepest := to_)
      | None -> ());
      (* Floor the storm window at 100 ms: in short windows the ladder's
         escalation transient (~2 ms of polluted tail before Static
         engages) weighs enough in p99 that the guardrail contrast the
         oracles check cannot form, at any scale. *)
      let dur = max (Time_ns.ms 100) (scaled scale (Time_ns.ms 120)) in
      let until = Sim.now sim + dur in
      (* Storm mix: heavy background DP traffic (the latency victims),
         Critical monitors, Deferrable churn, and the Standard VM-startup
         storm — one client per priority class. *)
      (* Background DP at 0.35 (storage lighter at 0.15): the bursty
         generator's on-phase then runs well under saturation, so the
         measured tail is attributable to CP placements stealing DP
         cores, not to the generator's own burst queueing. *)
      start_bg_dp sys ~target:0.25 ~storage_target:0.12 ~until;
      start_bg_cp sys;
      start_cp_churn sys ~period:(Time_ns.us 300) ~work:(Time_ns.us 200) ~until;
      (* The fig17 VM-startup storm as Standard-class work, staggered
         across the first third of the window so the late wave hits an
         already-deep ladder and exercises the deferred path (a single
         burst would all be admitted at Normal). *)
      let recorder = Recorder.create "vm.startup" in
      let tasks =
        vm_storm sys
          ~rng:(Rng.split (System.rng sys) "overload-storm")
          ~density ~locks:"device-driver" ~name:"vm" ~recorder
      in
      spawn_staggered sys ~spread:(dur / 3) tasks;
      System.advance sys dur;
      (* Post-storm: let deferred admissions drain and the ladder re-arm.
         The quiet tail is sized generously past overload_quiet so "still
         not Normal" means a stuck ladder, not a short tail. *)
      ignore (System.run_until_tasks_done sys tasks ~limit:(Time_ns.sec 2));
      System.advance sys (Time_ns.ms 20);
      let hist = System.dp_latency_hist sys in
      let p99_us = p99_us hist in
      (* Evaluate the guardrail as a proper SLO verdict over the merged DP
         latency histogram rather than a raw comparison. *)
      let guard =
        Slo.check_hist
          (Slo.latency_p "dp.p99" ~percentile:99.0 ~bound:guardrail)
          hist ~duration:(System.elapsed sys)
      in
      let vms_done = List.length (List.filter Task.is_finished tasks) in
      let get = Counters.get counters in
      {
        density;
        governor;
        p99_us;
        guard;
        startup_ms =
          (if Recorder.count recorder = 0 then 0.0
           else Recorder.mean recorder /. 1e6);
        vms_done;
        vms_total = List.length tasks;
        transitions =
          (match ov with Some ov -> Overload.transitions ov | None -> 0);
        escalations =
          (match ov with Some ov -> Overload.escalations ov | None -> 0);
        max_level = Overload.level_label !deepest;
        final_level =
          (match ov with
          | Some ov -> Overload.level_label (Overload.level ov)
          | None -> "-");
        shed_critical = get "overload.shed.critical";
        shed_standard = get "overload.shed.standard";
        shed_deferrable = get "overload.shed.deferrable";
        deferred =
          get "overload.deferred.standard" + get "overload.deferred.deferrable";
        held = get "overload.client_held.churn";
        fingerprint =
          fingerprint [ ("", sys) ]
            [
              Printf.sprintf "p99=%.3f" p99_us;
              Printf.sprintf "startup=%d" (Recorder.count recorder);
            ];
      })

let check_oracles cells =
  let fail fmt = Printf.ksprintf failwith fmt in
  let on_cells = List.filter (fun c -> c.governor) cells in
  let off_cells = List.filter (fun c -> not c.governor) cells in
  (* 1. The storm cell contrast: governor-off breaches the DP p99
     guardrail at max density; governor-on holds it. *)
  List.iter
    (fun off ->
      if off.density = max_density && off.guard.Slo.satisfied then
        fail
          "exp_overload: governor-off baseline held the guardrail at %.0fx \
           (p99=%.1fus) — the storm is not stressful enough to test the \
           governor"
          max_density off.p99_us)
    off_cells;
  List.iter
    (fun on ->
      if on.density = max_density && not on.guard.Slo.satisfied then
        fail
          "exp_overload: governor-on breached the DP p99 guardrail at %.0fx \
           (p99=%.1fus > %.1fus)"
          max_density on.p99_us
          (float_of_int guardrail /. 1e3))
    on_cells;
  List.iter
    (fun c ->
      (* 2. Only the lowest class is ever shed. *)
      if c.shed_critical > 0 || c.shed_standard > 0 then
        fail
          "exp_overload: shed a non-deferrable admission at %.0fx \
           (critical=%d standard=%d)"
          c.density c.shed_critical c.shed_standard;
      (* 3. Bounded ladder: no flapping. *)
      if c.transitions > max_transitions then
        fail "exp_overload: %d ladder transitions at %.0fx (max %d) — flapping"
          c.transitions c.density max_transitions;
      (* 4. Post-storm the ladder re-armed all the way down. *)
      if c.final_level <> "normal" then
        fail "exp_overload: ladder still at %s after the post-storm quiet tail"
          c.final_level)
    on_cells

(* The grid: (density x governor), plus an explicit determinism-repeat
   cell that re-measures the hottest governed point at the same seed. *)
let overload_grid =
  List.concat_map
    (fun density ->
      List.map
        (fun governor ->
          ( {
              Exp_desc.key =
                Printf.sprintf "d%.0f-%s" density
                  (if governor then "on" else "off");
              label =
                Printf.sprintf "density %.0fx, governor %s" density
                  (if governor then "on" else "off");
            },
            `Point (density, governor) ))
        [ false; true ])
    densities
  @ [
      ( {
          Exp_desc.key = "repeat-d4-on";
          label = "determinism repeat: density 4x, governor on";
        },
        `Repeat );
    ]

(* The CI matrix pins one governor setting per job; the CLI turns
   --overload into a cell filter over these keys (the repeat cell counts
   as a governed cell). *)
let governor_filter governor cell =
  String.ends_with
    ~suffix:(if governor then "-on" else "-off")
    cell.Exp_desc.key

let overload =
  Exp_desc.make ~name:"overload"
    ~title:
      "OVERLOAD: VM-startup storm x density, brownout governor on/off (DP \
       p99 guardrail oracle)"
    ~description:
      "VM-startup storm x density sweep with the brownout governor on/off: \
       guardrail contrast, shed discipline, bounded-ladder and determinism \
       oracles"
    ~grid:overload_grid
    ~run_cell:(fun ctx ~seed ~scale _cell point ->
      match point with
      | `Point (density, governor) ->
          Run_ctx.printf ctx "\n-- density %.0fx, governor %s (seed %d)\n"
            density
            (if governor then "on" else "off")
            seed;
          measure ctx ~seed ~scale ~density ~governor
      | `Repeat ->
          Run_ctx.printf ctx
            "\n-- determinism check: repeating density %.0fx governor on \
             (seed %d)\n"
            max_density seed;
          measure ctx ~seed ~scale ~density:max_density ~governor:true)
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let cells = results_except "repeat-d4-on" results in
      let table =
        Table.create
          ~columns:
            [
              ("density", Table.Right);
              ("governor", Table.Left);
              ("dp_p99_us", Table.Right);
              ("guardrail", Table.Left);
              ("startup_ms", Table.Right);
              ("vms", Table.Right);
              ("trans", Table.Right);
              ("deepest", Table.Left);
              ("final", Table.Left);
              ("shed", Table.Right);
              ("deferred", Table.Right);
              ("held", Table.Right);
            ]
      in
      List.iter
        (fun c ->
          Table.add_row table
            [
              Printf.sprintf "%.0fx" c.density;
              (if c.governor then "on" else "off");
              Printf.sprintf "%.1f" c.p99_us;
              (if c.guard.Slo.satisfied then "held" else "BREACHED");
              Printf.sprintf "%.1f" c.startup_ms;
              Printf.sprintf "%d/%d" c.vms_done c.vms_total;
              string_of_int c.transitions;
              c.max_level;
              c.final_level;
              string_of_int c.shed_deferrable;
              string_of_int c.deferred;
              string_of_int c.held;
            ])
        cells;
      Run_ctx.print_table ctx table;
      (* Determinism oracle: the repeat cell measured the hottest governed
         point again; the two digests must match. *)
      check_oracles cells;
      check_repeat ~experiment:"exp_overload" ~base:"d4-on"
        ~repeat:"repeat-d4-on"
        (fun o -> o.fingerprint)
        results;
      if List.exists (fun c -> c.governor) cells then
        Run_ctx.printf ctx
          "\nGuardrail %s held with the governor on; deferrable work was \
           held/shed instead of sinking the data plane.\n"
          (Time_ns.to_string guardrail)
      else
        Run_ctx.printf ctx
          "\nBaseline (governor off): the storm breaches the %s DP p99 \
           guardrail at %.0fx density.\n"
          (Time_ns.to_string guardrail) max_density)
