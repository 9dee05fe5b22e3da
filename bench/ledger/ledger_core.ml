(* --- order statistics -------------------------------------------------- *)

(* Python's statistics.quantiles(data, n=4), method "exclusive": cut
   point i sits at rank i(m+1)/4, clamped to the inner ranks, and
   interpolates between its two neighbours. *)
let quartiles values =
  let data = Array.of_list (List.sort compare values) in
  let ld = Array.length data in
  if ld = 0 then invalid_arg "Ledger_core.quartiles: no values";
  if ld = 1 then (data.(0), data.(0), data.(0))
  else
    let cut i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((data.(j - 1) *. float_of_int (4 - delta))
      +. (data.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 2, cut 3)

let median values =
  let _, m, _ = quartiles values in
  m

let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- host speed ------------------------------------------------------------ *)

let reference_calib_s = 0.004
let at_reference ~calib t = t *. reference_calib_s /. calib

let scaled_wall ~total ops =
  let wall = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 ops in
  if wall <= 0.0 then total
  else
    let scaled =
      List.fold_left (fun acc (w, calib) -> acc +. at_reference ~calib w) 0.0 ops
    in
    total *. scaled /. wall

let op_medians = function
  | [] -> 0.0
  | first :: _ as reps ->
      List.fold_left
        (fun acc (key, _) ->
          acc +. median (List.filter_map (List.assoc_opt key) reps))
        0.0 first

(* --- layer counters ---------------------------------------------------- *)

type source = Get of string | Sum of string

let layer_counters =
  [
    ("dataplane.parks", Get "dp.parks");
    ("dataplane.wakes", Get "dp.wakes");
    ("dataplane.yields", Get "dp.yields");
    ("dataplane.resumes", Get "dp.resumes");
    ("core.sched.placements", Get "sched.placements");
    ("core.sched.slice_expiries", Get "sched.slice_expiries");
    ("core.sched.evictions", Sum "sched.evictions.");
    ("core.sched.rescues", Get "sched.rescues");
    ("core.sched.borrows", Get "sched.borrows");
    ("core.sched.borrow_retries", Get "sched.borrow_retries");
    ("core.probe.hw_triggers", Get "probe.hw.triggers");
    ("core.probe.hw_suppressed", Get "probe.hw.suppressed");
    ("core.probe.sw_false_positives", Get "probe.sw.false_positive");
    ("core.probe.sw_sustained_idle", Get "probe.sw.sustained_idle");
    ("overload.samples", Get "overload.samples");
    ("overload.transitions", Get "overload.transitions");
    ("overload.admitted", Sum "overload.admitted.");
    ("overload.deferred", Sum "overload.deferred.");
    ("overload.shed", Sum "overload.shed.");
    ("overload.place_denied", Get "overload.place_denied");
    ("lifecycle.admitted", Get "churn.admitted");
    ("lifecycle.admit_refused", Get "churn.admit_refused");
    ("lifecycle.admit_retries", Get "churn.admit_retries");
    ("lifecycle.drain_forced", Get "churn.drain_forced");
    ("os.kernel.context_switches", Get "kernel.context_switches");
    ("os.kernel.steals", Get "kernel.steals");
    ("os.kernel.migrations", Get "kernel.migrations");
    ("os.softirq.raised", Get "softirq.raised");
    ("hw.core_state.transitions", Get "core_state.transitions");
    ("hw.core_state.illegal", Get "core_state.illegal");
    ("fleet.exchange.sent", Get "fleet.exchange.sent");
    ("fleet.exchange.delivered", Get "fleet.exchange.delivered");
    ("fleet.exchange.lost", Sum "fleet.exchange.lost_");
    ("fleet.rpc.sent", Get "fleet.rpc.sent");
    ("fleet.rpc.completed", Get "fleet.rpc.completed");
    ("fleet.rpc.retries", Get "fleet.rpc.retries");
    ("fleet.rpc.timeouts", Get "fleet.rpc.timeouts");
    ("fleet.failover.replaced", Get "fleet.failover.replaced");
    ("fleet.failover.refused", Get "fleet.failover.refused");
  ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let sum_source dump source =
  List.fold_left
    (fun acc (name, v) ->
      let hit =
        match source with
        | Get n -> name = n
        | Sum p -> starts_with ~prefix:p name
      in
      if hit && not (starts_with ~prefix:"tenant." name) then acc + v else acc)
    0 dump

let layer_counts dump =
  List.map (fun (metric, src) -> (metric, sum_source dump src)) layer_counters

(* --- failure accounting ------------------------------------------------ *)

let faults ~exn ~oracle ~audit ~illegal ~lost =
  List.concat
    [
      (match exn with Some e -> [ "exception: " ^ e ] | None -> []);
      (match oracle with Some o -> [ "oracle: " ^ o ] | None -> []);
      (match audit with
      | [] -> []
      | vs -> [ "audit: " ^ String.concat "; " vs ]);
      (if illegal > 0 then [ Printf.sprintf "core_state.illegal = %d" illegal ]
       else []);
      (if lost > 0 then
         [ Printf.sprintf "%d committed tenant(s) lost with failover on" lost ]
       else []);
    ]

type op = { key : string; digest : string; faults : string list }
type rep = { traced : bool; ops : op list }

let account ~expected reps =
  let reference =
    match List.find_opt (fun r -> not r.traced) reps with
    | Some r -> Some r
    | None -> ( match reps with r :: _ -> Some r | [] -> None)
  in
  let ref_digest key =
    Option.bind reference (fun r ->
        Option.map
          (fun (o : op) -> o.digest)
          (List.find_opt (fun (o : op) -> o.key = key) r.ops))
  in
  let failures =
    List.concat_map
      (fun rep ->
        List.filter_map
          (fun key ->
            match List.find_opt (fun (o : op) -> o.key = key) rep.ops with
            | None -> Some (key, "missing from its repetition")
            | Some { faults = f :: _; _ } -> Some (key, f)
            | Some o -> (
                match ref_digest key with
                | Some d when d <> o.digest ->
                    Some
                      ( key,
                        if rep.traced then "traced digest differs"
                        else "digest differs across repetitions" )
                | _ -> None))
          expected)
      reps
  in
  (List.length expected * List.length reps, failures)

(* --- spans --------------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;
  name : string;
  start : float;
  stop : float;
}

type recorder = {
  now : unit -> float;
  mutable next_id : int;
  mutable open_ : int list; (* innermost first *)
  mutable closed : span list; (* newest first *)
}

let recorder ~now = { now; next_id = 0; open_ = []; closed = [] }
let current r = match r.open_ with id :: _ -> id | [] -> -1

let span r name f =
  let id = r.next_id in
  r.next_id <- id + 1;
  let parent = current r in
  let start = r.now () in
  r.open_ <- id :: r.open_;
  Fun.protect f ~finally:(fun () ->
      r.open_ <- List.tl r.open_;
      r.closed <- { id; parent; name; start; stop = r.now () } :: r.closed)

let adopt r spans =
  let base = r.next_id in
  let under = current r in
  List.iter
    (fun s ->
      r.next_id <- max r.next_id (base + s.id + 1);
      r.closed <-
        {
          s with
          id = base + s.id;
          parent = (if s.parent < 0 then under else base + s.parent);
        }
        :: r.closed)
    spans

let spans r = List.stable_sort (fun a b -> compare a.start b.start) r.closed

let self_time all s =
  let clip (a, b) = (Float.max a s.start, Float.min b s.stop) in
  let kids =
    List.filter_map
      (fun c -> if c.parent = s.id then Some (clip (c.start, c.stop)) else None)
      all
    |> List.filter (fun (a, b) -> b > a)
    |> List.sort compare
  in
  (* Union of the children's intervals, swept left to right. *)
  let covered, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b))
        | None -> (acc, Some (a, b)))
      (0.0, None) kids
  in
  let covered =
    match last with Some (a, b) -> covered +. (b -. a) | None -> covered
  in
  s.stop -. s.start -. covered
