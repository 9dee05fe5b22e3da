open Taichi_faults
open Taichi_metrics

(* Fleet-scale resilience: a rack of SmartNICs under a region-wide
   VM-startup storm, with NIC fault domains, cross-NIC tenant failover
   and fleet SLO attainment (fraction of surviving NICs holding the
   150 µs DP p99 guardrail). The grid contrasts governor on/off and
   failover on/off around mid-storm NIC crashes, plus a quiet
   integrity cell for the exchange/RPC accounting and the determinism
   repeat. *)

let mid_crash ~crashes =
  {
    Nic_faults.quiet with
    Nic_faults.crashes;
    crash_window = (12, 28);
  }

let storm_faults =
  {
    Nic_faults.crashes = 2;
    crash_window = (12, 30);
    brownouts = 1;
    brownout_hold = 8;
    partition = true;
    partition_hold = 6;
    overruns = 1;
  }

type point = {
  nics : int;
  governor : bool;
  failover : bool;
  faults : Nic_faults.spec;
}

type outcome = { key : string; point : point; rep : Fleet_run.report }

let params_of ~scale pt =
  (* The storm window is floored at 40 epochs (100 ms of simulated time):
     shorter windows leave the governor's escalation transient dominating
     p99 and the attainment contrast cannot form (same floor as
     exp_overload). *)
  let epochs = max 40 (int_of_float (48.0 *. scale)) in
  {
    Fleet_run.default_params with
    Fleet_run.nics = pt.nics;
    epochs;
    governor = pt.governor;
    failover = pt.failover;
    faults = pt.faults;
  }

let measure ctx ~seed ~scale ~key pt =
  { key; point = pt; rep = Fleet_run.run ~ctx ~seed (params_of ~scale pt) }

(* --- oracles -------------------------------------------------------------- *)

let committed_names_of rep ~from_nic =
  List.filter_map
    (fun r ->
      if r.Fleet_run.from_nic = from_nic then Some r.Fleet_run.tenant
      else None)
    rep.Fleet_run.r_committed

let check_oracles cells =
  let fail fmt = Printf.ksprintf failwith fmt in
  List.iter
    (fun c ->
      let rep = c.rep in
      (* Exchange accounting: every NIC's deliveries and losses are
         bounded by the fleet's sends (the final epoch's exchange is
         still in flight, so <=, never =). *)
      let sum f =
        List.fold_left (fun acc r -> acc + f r) 0 rep.Fleet_run.r_nics
      in
      let sent = sum (fun r -> r.Fleet_run.nr_exch_sent) in
      let delivered = sum (fun r -> r.Fleet_run.nr_exch_delivered) in
      let lost = sum (fun r -> r.Fleet_run.nr_exch_lost) in
      if delivered + lost > sent then
        fail
          "exp_fleet[%s]: exchange books don't balance (%d delivered + %d \
           lost > %d sent)"
          c.key delivered lost sent;
      (* Failover receipts land only on crashed NICs' tenants. *)
      List.iter
        (fun r ->
          if not (List.mem r.Fleet_run.from_nic rep.Fleet_run.r_crashed) then
            fail
              "exp_fleet[%s]: failover receipt for tenant %s names NIC %d, \
               which never crashed"
              c.key r.Fleet_run.tenant r.Fleet_run.from_nic;
          if
            not
              (List.mem r.Fleet_run.tenant
                 (committed_names_of rep ~from_nic:r.Fleet_run.from_nic))
          then
            fail
              "exp_fleet[%s]: failover receipt for %s, which was not \
               committed on crashed NIC %d"
              c.key r.Fleet_run.tenant r.Fleet_run.from_nic)
        rep.Fleet_run.r_replaced;
      if c.point.failover then begin
        (* Zero committed-tenant loss: every tenant committed on a
           crashed NIC was re-placed on a survivor (or the chain of
           crashes re-placed it again). *)
        if rep.Fleet_run.r_lost <> [] then
          fail "exp_fleet[%s]: %d tenants lost with failover on" c.key
            (List.length rep.Fleet_run.r_lost);
        List.iter
          (fun cm ->
            let replaced =
              List.exists
                (fun r ->
                  r.Fleet_run.tenant = cm.Fleet_run.tenant
                  && r.Fleet_run.from_nic = cm.Fleet_run.from_nic)
                rep.Fleet_run.r_replaced
            in
            if not replaced then
              fail
                "exp_fleet[%s]: committed tenant %s (NIC %d) was never \
                 re-placed"
                c.key cm.Fleet_run.tenant cm.Fleet_run.from_nic)
          rep.Fleet_run.r_committed
      end
      else if rep.Fleet_run.r_crashed <> [] then begin
        (* Failover off: the crash must actually cost committed tenants,
           and nothing may have been re-placed. *)
        if rep.Fleet_run.r_replaced <> [] then
          fail "exp_fleet[%s]: failover off but %d tenants were re-placed"
            c.key
            (List.length rep.Fleet_run.r_replaced);
        if rep.Fleet_run.r_lost = [] then
          fail
            "exp_fleet[%s]: failover off and NICs crashed, yet no tenant \
             was lost — the crash hit nothing"
            c.key
      end;
      (* Crash count matches the plan. *)
      let planned = c.point.faults.Nic_faults.crashes in
      if List.length rep.Fleet_run.r_crashed <> planned then
        fail "exp_fleet[%s]: %d NICs crashed, plan said %d" c.key
          (List.length rep.Fleet_run.r_crashed)
          planned;
      (* Quiet cell: a faultless fabric loses nothing and abandons no
         RPC. *)
      if
        planned = 0
        && (not c.point.faults.Nic_faults.partition)
        && c.point.faults.Nic_faults.brownouts = 0
      then begin
        if lost > 0 then
          fail "exp_fleet[%s]: %d messages lost on a faultless fabric" c.key
            lost;
        let rpc_abandoned =
          sum (fun r -> r.Fleet_run.nr_rpc_abandoned)
        in
        let rpc_timeouts = sum (fun r -> r.Fleet_run.nr_rpc_timeouts) in
        if rpc_abandoned > 0 || rpc_timeouts > 0 then
          fail
            "exp_fleet[%s]: faultless fabric produced %d RPC timeouts / %d \
             abandons"
            c.key rpc_timeouts rpc_abandoned
      end;
      (* A drain-window overrun that admitted must have forced a drain. *)
      if
        rep.Fleet_run.r_overruns_admitted > 0
        && rep.Fleet_run.r_forced_drains < 1
      then
        fail
          "exp_fleet[%s]: a drain overrun was pinned but no drain was \
           forced"
          c.key)
    cells;
  (* Fleet SLO attainment: governor on >= governor off on the matched
     8-NIC crash cells (equality tolerated — the oracle is that the
     governor never costs attainment). *)
  let find k = List.find_opt (fun c -> c.key = k) cells in
  (match (find "n8-gov_on-fo_on", find "n8-gov_off-fo_on") with
  | Some on, Some off ->
      if
        on.rep.Fleet_run.r_attainment < off.rep.Fleet_run.r_attainment
      then
        fail
          "exp_fleet: governor-on fleet attainment %.2f < governor-off \
           %.2f"
          on.rep.Fleet_run.r_attainment off.rep.Fleet_run.r_attainment
  | _ -> ())

(* --- the grid ------------------------------------------------------------- *)

let pt nics governor failover faults = { nics; governor; failover; faults }
let primary = pt 8 true true (mid_crash ~crashes:1)

let grid =
  let cell key label v = ({ Exp_desc.key; label }, v) in
  [
    cell "n8-gov_on-fo_on" "8 NICs, 1 crash, governor on, failover on"
      (`Point primary);
    cell "n8-gov_off-fo_on" "8 NICs, 1 crash, governor off, failover on"
      (`Point (pt 8 false true (mid_crash ~crashes:1)));
    cell "n8-gov_on-fo_off" "8 NICs, 1 crash, failover off (loss accounting)"
      (`Point (pt 8 true false (mid_crash ~crashes:1)));
    cell "n8-quiet-fo_on" "8 NICs, faultless fabric (integrity baseline)"
      (`Point (pt 8 true true Nic_faults.quiet));
    cell "n16-storm-gov_on-fo_on"
      "16 NICs: 2 crashes + brownout + partition + drain overrun"
      (`Point (pt 16 true true storm_faults));
    cell "repeat-n8-gov_on-fo_on"
      "determinism repeat: 8 NICs, 1 crash, governor on, failover on"
      `Repeat;
  ]

let point_of = function `Point pt -> pt | `Repeat -> primary

let nic_counts =
  List.sort_uniq compare (List.map (fun (_, v) -> (point_of v).nics) grid)

(* The CI matrix pins (nics, failover) per job; the CLI turns --nics and
   --failover into cell filters over the grid points (the repeat cell
   rides with its base cell's settings). *)
let point_filter f cell = f (point_of (Exp_desc.result grid cell.Exp_desc.key))
let nics_filter n = point_filter (fun pt -> pt.nics = n)
let failover_filter failover = point_filter (fun pt -> pt.failover = failover)

let fleet =
  Exp_desc.make ~name:"fleet"
    ~title:
      "FLEET: a rack of SmartNICs x {NIC crashes, brownout, partition, \
       drain overrun} with cross-NIC tenant failover (fleet SLO \
       attainment, zero-loss and determinism oracles)"
    ~description:
      "Region-wide VM-startup storm across 8-16 NICs with mid-storm NIC \
       crashes: deterministic epoch exchange, cross-NIC RPC \
       timeout/retry accounting, tenant failover by a reconcile loop over \
       refusable admission, fleet SLO attainment governor on/off"
    ~grid
    ~run_cell:(fun ctx ~seed ~scale cell point ->
      (match point with
      | `Point _ ->
          Run_ctx.printf ctx "\n-- %s: %s (seed %d)\n" cell.Exp_desc.key
            cell.Exp_desc.label seed
      | `Repeat ->
          Run_ctx.printf ctx
            "\n-- determinism check: repeating n8-gov_on-fo_on (seed %d)\n"
            seed);
      measure ctx ~seed ~scale ~key:cell.Exp_desc.key (point_of point))
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let cells = Exp_common.results_except "repeat-n8-gov_on-fo_on" results in
      let table =
        Table.create
          ~columns:
            [
              ("cell", Table.Left);
              ("nics", Table.Right);
              ("crashed", Table.Right);
              ("attain", Table.Right);
              ("committed", Table.Right);
              ("replaced", Table.Right);
              ("refused", Table.Right);
              ("lost", Table.Right);
              ("rpc", Table.Right);
              ("retries", Table.Right);
              ("forced", Table.Right);
            ]
      in
      List.iter
        (fun c ->
          let rep = c.rep in
          let sum f =
            List.fold_left (fun acc r -> acc + f r) 0 rep.Fleet_run.r_nics
          in
          Table.add_row table
            [
              c.key;
              string_of_int c.point.nics;
              string_of_int (List.length rep.Fleet_run.r_crashed);
              Printf.sprintf "%.2f" rep.Fleet_run.r_attainment;
              string_of_int (List.length rep.Fleet_run.r_committed);
              string_of_int (List.length rep.Fleet_run.r_replaced);
              string_of_int rep.Fleet_run.r_refused;
              string_of_int (List.length rep.Fleet_run.r_lost);
              Printf.sprintf "%d/%d"
                (sum (fun r -> r.Fleet_run.nr_rpc_completed))
                (sum (fun r -> r.Fleet_run.nr_rpc_sent));
              string_of_int (sum (fun r -> r.Fleet_run.nr_rpc_retries));
              string_of_int rep.Fleet_run.r_forced_drains;
            ])
        cells;
      Run_ctx.print_table ctx table;
      check_oracles cells;
      Exp_common.check_repeat ~experiment:"exp_fleet" ~base:"n8-gov_on-fo_on"
        ~repeat:"repeat-n8-gov_on-fo_on"
        (fun o -> o.rep.Fleet_run.r_fingerprint)
        results;
      Run_ctx.printf ctx
        "\nEvery committed tenant on a crashed NIC was re-placed on a \
         survivor (failover on), the governor never cost fleet SLO \
         attainment, and the exchange books balanced.\n")
