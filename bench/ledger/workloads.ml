(* The four ledger workloads and what one repetition of each does.

   An operation is one experiment cell (run through the descriptor's own
   [run_cell], then the experiment's [summarize] oracle over all its
   cells) or one [Fleet_run.run] point. Everything is called through the
   public platform API and timed from outside. *)

module P = Taichi_platform
module Core = Taichi_core
module Export = Taichi_metrics.Export
module Timeline = Taichi_metrics.Timeline

type group =
  | Experiment of string * float  (** registry id, scale *)
  | Fleet_point of string * P.Fleet_run.params

type t = {
  name : string;
  groups : group list;
  seeds : int;  (** experiment seeds per repetition, see {!sub_seeds} *)
  why : string;
}

let ncpu = Domain.recommended_domain_count ()

(* The two fleet points of exp_fleet's grid the ledger times: the 8-NIC
   mid-storm crash and the 16-NIC storm, both at the 40-epoch floor, on
   one worker domain. With two domains on a 2-core shared host, a
   neighbour busy on either core stalls the epoch barrier: the same
   point then ran almost 3 times slower while the single-threaded
   calibration pass slowed by 1.4 times. Fleet output is the
   same at any domain count, and [fleet.jobs_speedup] times the domains
   on their own. *)
let fleet_params ~nics faults =
  {
    P.Fleet_run.default_params with
    P.Fleet_run.nics;
    epochs = 40;
    faults;
    fleet_jobs = 1;
  }

let n8_crash =
  fleet_params ~nics:8
    {
      Taichi_faults.Nic_faults.quiet with
      Taichi_faults.Nic_faults.crashes = 1;
      crash_window = (12, 28);
    }

let n16_storm =
  fleet_params ~nics:16
    {
      Taichi_faults.Nic_faults.crashes = 2;
      crash_window = (12, 30);
      brownouts = 1;
      brownout_hold = 8;
      partition = true;
      partition_hold = 6;
      overruns = 1;
    }

(* A repetition runs every operation at [seeds] experiment seeds, so that
   a run measures the workload rather than one seed's luck. Over 30
   seeds, the quartile spread of the event count is 6% for cp_storm and
   7% for tenant_brownout, whose CP-storm cells alone spread by 11%; at
   three seeds, tenant_brownout's wall time still spread by 8% over ten
   runs, so it runs at five. The other two spread by under 3%. *)
let all =
  [
    {
      name = "cp_storm";
      groups = [ Experiment ("fig17", 1.0); Experiment ("fig11", 1.0) ];
      seeds = 3;
      why =
        "the control-plane path: vCPU placement, probes and kernel under a \
         VM-startup storm";
    };
    {
      name = "dp_netperf";
      groups = [ Experiment ("fig14", 1.0) ];
      seeds = 1;
      why =
        "the packet path: pipeline, ring, dp_service and the \
         netperf/sockperf clients";
    };
    (* The overload and churn grids would belong here too, but their
       oracles fail at seeds inside the vetted range (overload at 3 and
       churn at 11 of seeds 1-30, scale 0.25). *)
    {
      name = "tenant_brownout";
      groups = [ Experiment ("multitenant", 0.25) ];
      seeds = 5;
      why =
        "weighted Wsched lanes and per-tenant governor throttle/defer/shed \
         under CP-storm and DP-burst aggressors";
    };
    {
      name = "fleet_failover";
      groups =
        [ Fleet_point ("n8-crash", n8_crash); Fleet_point ("n16-storm", n16_storm) ];
      seeds = 1;
      why =
        "many systems per operation, the epoch exchange, RPC and failover \
         admission";
    };
  ]

(* Experiment seeds are drawn from [0 .. vetted_seeds - 1], every one of
   which passes every operation's checks on all four workloads. Past
   that range some do not: multitenant's attribution oracle fails at
   seeds 209 and 244 (scale 0.25), and a workload must pass at any
   [--seed]. *)
let vetted_seeds = 120

(* The experiment seeds of one repetition: with [k = w.seeds], the [k]
   consecutive seeds from [seed * k], taken modulo {!vetted_seeds}. *)
let sub_seeds w ~seed =
  let k = w.seeds in
  let base = ((seed mod vetted_seeds) + vetted_seeds) mod vetted_seeds in
  List.init k (fun i -> ((base * k) + i) mod vetted_seeds)

let key_at w ~sub base = if w.seeds = 1 then base else Printf.sprintf "%s@%d" base sub

let find name = List.find_opt (fun w -> w.name = name) all

let find_experiment id =
  match P.Experiments.find id with
  | Some d -> d
  | None -> failwith ("ledger: unknown experiment " ^ id)

let op_keys w ~seed =
  List.concat_map
    (fun sub ->
      List.concat_map
        (function
          | Experiment (id, _) ->
              List.map
                (fun c -> key_at w ~sub (id ^ "/" ^ c.P.Exp_desc.key))
                (P.Exp_desc.cells (find_experiment id))
          | Fleet_point (key, _) -> [ key_at w ~sub ("fleet/" ^ key) ])
        w.groups)
    (sub_seeds w ~seed)

(* --- calibration loop -------------------------------------------------------- *)

(* A fixed slice of event-queue-like work -- a binary heap over two int
   arrays and a scattered table update -- that allocates nothing and
   calls no library code. Timed next to every operation, it reads how
   fast the host runs at that moment: on a shared host the speed drifts
   by tens of percent over minutes, and this loop slows down with it. *)
let calib_keys = Array.make 32768 0
let calib_vals = Array.make 32768 0
let calib_table = Array.make 131072 0
let calib_size = ref 0
let calib_state = ref 0

let calib_swap i j =
  let k = calib_keys.(i) and v = calib_vals.(i) in
  calib_keys.(i) <- calib_keys.(j);
  calib_vals.(i) <- calib_vals.(j);
  calib_keys.(j) <- k;
  calib_vals.(j) <- v

let calib_push k v =
  let i = ref !calib_size in
  incr calib_size;
  calib_keys.(!i) <- k;
  calib_vals.(!i) <- v;
  while !i > 0 && calib_keys.((!i - 1) / 2) > calib_keys.(!i) do
    calib_swap ((!i - 1) / 2) !i;
    i := (!i - 1) / 2
  done

(* Remove the minimum; return its value. *)
let calib_pop () =
  let v = calib_vals.(0) in
  decr calib_size;
  calib_swap 0 !calib_size;
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    let m = ref !i in
    if l < !calib_size && calib_keys.(l) < calib_keys.(!m) then m := l;
    if l + 1 < !calib_size && calib_keys.(l + 1) < calib_keys.(!m) then m := l + 1;
    if !m = !i then sifting := false
    else begin
      calib_swap !m !i;
      i := !m
    end
  done;
  v

let calib_next () =
  calib_state := ((!calib_state * 1103515245) + 12345) land 0x3fffffff;
  !calib_state

(* Seconds for one pass, after a full major collection so that no GC
   work left by the previous operation lands in it. *)
let calibrate () =
  Gc.full_major ();
  calib_size := 0;
  calib_state := 12345;
  let t0 = Unix.gettimeofday () in
  for i = 0 to 16383 do
    calib_push (calib_next ()) i
  done;
  for i = 1 to 24_000 do
    let k = calib_keys.(0) in
    let v = calib_pop () in
    let slot = ((v * 7919) + i) land 131071 in
    calib_table.(slot) <- calib_table.(slot) + k;
    calib_push (k + (calib_next () land 0xffff)) i
  done;
  Unix.gettimeofday () -. t0

(* --- one repetition -------------------------------------------------------- *)

type op_row = {
  key : string;
  wall_s : float;
  calib_s : float;  (** mean {!calibrate} time just before and just after *)
  scheduled : int;
  fired : int;
  minor_words : float;
  digest : string;
  faults : string list;
}

(* Trace-side sums over a traced repetition's harvested runs. They are
   folded in right after each operation, so no more than one
   operation's trace is held at a time. *)
type totals = {
  mutable layers : (string * int) list;  (** {!Ledger_core.layer_counts} *)
  mutable dp_ns : int;
  mutable vcpu_ns : int;
  mutable switch_ns : int;
  mutable total_ns : int;
  mutable events : int;
  mutable dropped : int;
  mutable export_s : float;  (** [Export.to_string] of the runs *)
}

type rep = {
  wall_s : float;  (** every operation's wall time plus every summarize *)
  summarize_s : float;
  ops : op_row list;
  sim_digest : string;
  totals : totals option;  (** traced repetitions only *)
}

let hex s = Digest.to_hex (Digest.string s)

let audit_of ctx =
  List.concat_map (fun f -> f.P.Run_ctx.violations) (P.Run_ctx.audit_failures ctx)

let root_ctx ~traced ~experiment =
  P.Run_ctx.for_cell
    (P.Run_ctx.create ~tracing:traced ~audit:P.Run_ctx.Collect ~experiment ())

let add_runs spans t runs =
  let dump = List.concat_map (fun (r : Export.run) -> r.counters) runs in
  t.layers <-
    List.map2 (fun (k, a) (_, b) -> (k, a + b)) t.layers (Ledger_core.layer_counts dump);
  List.iter
    (fun (r : Export.run) ->
      t.events <- t.events + List.length r.events;
      t.dropped <- t.dropped + Timeline.dropped r.timeline;
      for core = 0 to Timeline.n_cores r.timeline - 1 do
        let o = Timeline.occupancy r.timeline ~core in
        t.dp_ns <- t.dp_ns + o.Timeline.dp;
        t.vcpu_ns <- t.vcpu_ns + o.Timeline.vcpu;
        t.switch_ns <- t.switch_ns + o.Timeline.switch;
        t.total_ns <- t.total_ns + Timeline.total o
      done)
    runs;
  Ledger_core.span spans "export" (fun () ->
      let t0 = Unix.gettimeofday () in
      ignore (Export.to_string runs);
      t.export_s <- t.export_s +. (Unix.gettimeofday () -. t0))

(* What one operation left behind, read out of its context at once so
   the context (and its trace) can be dropped. *)
type measured = {
  m_wall : float;
  m_scheduled : int;
  m_fired : int;
  m_words : float;
  m_out : string;
  m_audit : string list;
  m_illegal : int;
  m_exn : string option;
}

type state = {
  spans : Ledger_core.recorder;
  totals : totals option;
  mutable calibs : float list;  (** {!calibrate} times, newest first: one before each operation *)
}

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* Every operation starts from a fully collected heap (the calibration
   pass collects first), so the process's peak heap is the largest
   single operation's own footprint, not an accident of when the
   incremental major GC caught up with earlier operations' garbage. *)
let run_op st ctx f =
  st.calibs <- calibrate () :: st.calibs;
  let w0 = minor_words () in
  let t0 = Unix.gettimeofday () in
  let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  let wall = Unix.gettimeofday () -. t0 in
  let words = minor_words () -. w0 in
  let scheduled, fired = P.Run_ctx.engine_events ctx in
  let runs = P.Run_ctx.runs ctx in
  Option.iter (fun t -> add_runs st.spans t runs) st.totals;
  ( result,
    {
      m_wall = wall;
      m_scheduled = scheduled;
      m_fired = fired;
      m_words = words;
      m_out = P.Run_ctx.buffered_contents ctx;
      m_audit = audit_of ctx;
      m_illegal =
        List.fold_left
          (fun acc (r : Export.run) ->
            acc
            + Option.value ~default:0 (List.assoc_opt "core_state.illegal" r.counters))
          0 runs;
      m_exn = (match result with Error e -> Some e | Ok _ -> None);
    } )

let row ~key ~digest ~oracle ~lost m =
  {
    key;
    wall_s = m.m_wall;
    calib_s = 0.0;
    scheduled = m.m_scheduled;
    fired = m.m_fired;
    minor_words = m.m_words;
    digest;
    faults =
      Ledger_core.faults ~exn:m.m_exn ~oracle ~audit:m.m_audit ~illegal:m.m_illegal
        ~lost;
  }

(* Returns the op rows, the text hashed into the workload digest and the
   summarize time. *)
let run_experiment st w ~sub id scale =
  let (P.Exp_desc.T d) = find_experiment id in
  let root = root_ctx ~traced:(st.totals <> None) ~experiment:id in
  let cells =
    List.map
      (fun cell ->
        let key = key_at w ~sub (id ^ "/" ^ cell.P.Exp_desc.key) in
        Ledger_core.span st.spans ("cell " ^ key) (fun () ->
            let ctx = P.Run_ctx.for_cell root in
            let r, m = run_op st ctx (fun () -> d.run_cell ctx ~seed:sub ~scale cell) in
            (key, Result.map (fun v -> (cell, v)) r, m)))
      d.cells
  in
  let results = List.filter_map (fun (_, r, _) -> Result.to_option r) cells in
  (* The oracle needs every cell's result; with a failed cell it is
     skipped and only the failed cells count. *)
  let oracle, summarize_s =
    if List.length results <> List.length cells then (None, 0.0)
    else
      Ledger_core.span st.spans ("summarize " ^ id) (fun () ->
          let t0 = Unix.gettimeofday () in
          let o =
            try
              d.summarize root ~seed:sub ~scale results;
              None
            with e -> Some (Printexc.to_string e)
          in
          (o, Unix.gettimeofday () -. t0))
  in
  let summary = P.Run_ctx.buffered_contents root in
  let rows =
    List.map
      (fun (key, _, m) -> row ~key ~digest:(hex (m.m_out ^ summary)) ~oracle ~lost:0 m)
      cells
  in
  (rows, String.concat "" (List.map (fun (_, _, m) -> m.m_out) cells) ^ summary, summarize_s)

(* Committed tenants of crashed NICs that were lost or never re-placed;
   the failover-on oracle of exp_fleet. *)
let lost_tenants (rep : P.Fleet_run.report) =
  let replaced (c : P.Fleet_run.receipt) =
    List.exists
      (fun (r : P.Fleet_run.receipt) ->
        r.tenant = c.tenant && r.from_nic = c.from_nic)
      rep.r_replaced
  in
  List.length rep.r_lost
  + List.length (List.filter (fun c -> not (replaced c)) rep.r_committed)

let run_fleet_point st w ~sub key params =
  let key = key_at w ~sub ("fleet/" ^ key) in
  Ledger_core.span st.spans ("cell " ^ key) (fun () ->
      let ctx = root_ctx ~traced:(st.totals <> None) ~experiment:key in
      let r, m = run_op st ctx (fun () -> P.Fleet_run.run ~ctx ~seed:sub params) in
      let fingerprint, lost =
        match r with
        | Ok rep -> (rep.P.Fleet_run.r_fingerprint, lost_tenants rep)
        | Error _ -> ("", 0)
      in
      let text = fingerprint ^ m.m_out in
      ([ row ~key ~digest:(hex text) ~oracle:None ~lost m ], text, 0.0))

let run_rep spans w ~traced ~seed =
  let totals =
    if not traced then None
    else
      Some
        {
          layers = List.map (fun (k, _) -> (k, 0)) Ledger_core.layer_counters;
          dp_ns = 0;
          vcpu_ns = 0;
          switch_ns = 0;
          total_ns = 0;
          events = 0;
          dropped = 0;
          export_s = 0.0;
        }
  in
  let st = { spans; totals; calibs = [] } in
  (* The first pass of a process pays for cold caches; discard it. *)
  ignore (calibrate ());
  let parts =
    List.concat_map
      (fun sub ->
        List.map
          (function
            | Experiment (id, scale) -> run_experiment st w ~sub id scale
            | Fleet_point (key, params) -> run_fleet_point st w ~sub key params)
          w.groups)
      (sub_seeds w ~seed)
  in
  let calibs = Array.of_list (List.rev (calibrate () :: st.calibs)) in
  let ops = List.concat_map (fun (rows, _, _) -> rows) parts in
  let ops =
    List.mapi (fun i o -> { o with calib_s = (calibs.(i) +. calibs.(i + 1)) /. 2.0 }) ops
  in
  let summarize_s = List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 parts in
  {
    wall_s = List.fold_left (fun acc (o : op_row) -> acc +. o.wall_s) summarize_s ops;
    summarize_s;
    ops;
    sim_digest = hex (String.concat "" (List.map (fun (_, t, _) -> t) parts));
    totals;
  }

(* --- set-up ------------------------------------------------------------------ *)

(* The systems one operation of the workload starts from; each closure
   builds and warms one. *)
let setup_systems w ~seed =
  let ctx = root_ctx ~traced:false ~experiment:"setup" in
  let build ?(seed = seed) policy () =
    let sys = P.System.create ~ctx ~seed policy in
    P.System.warmup sys
  in
  let tenants =
    Core.Config.with_tenants Core.Config.default
      [ Core.Tenant.spec ~weight:2 "alpha"; Core.Tenant.spec "bravo" ]
  in
  match w.name with
  | "cp_storm" | "dp_netperf" ->
      [ build P.Policy.Static_partition; build P.Policy.taichi_default ]
  | "tenant_brownout" ->
      [
        build
          (P.Policy.Taichi
             (Core.Config.with_churn (Core.Config.with_overload tenants)));
      ]
  | _ ->
      let fleet_config =
        Core.Config.with_churn
          (Core.Config.with_overload (Core.Config.no_hw_probe tenants))
      in
      List.init 16 (fun i -> build ~seed:(seed + i) (P.Policy.Taichi fleet_config))

(* Seconds per round, and the mean {!calibrate} time just before and
   just after the timed rounds. Two unmeasured rounds come first, and
   every round starts after a full major collection of the previous
   round's systems: otherwise the first rounds also pay for growing the
   heap, and the median drifts with how many rounds ran. *)
let setup_rounds spans w ~seed =
  let rounds = 5 in
  let systems = setup_systems w ~seed in
  let round () =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    List.iter (fun build -> build ()) systems;
    Unix.gettimeofday () -. t0
  in
  Ledger_core.span spans "setup" (fun () ->
      ignore (round ());
      ignore (round ());
      ignore (calibrate ());
      let before = calibrate () in
      let times = List.init rounds (fun _ -> round ()) in
      let calib_s = (before +. calibrate ()) /. 2.0 in
      (List.length systems, times, calib_s))
