open Taichi_engine

let schema = "taichi-trace-v1"

type run = {
  experiment : string;
  policy : string;
  seed : int;
  duration : Time_ns.t;
  cores : int;
  tenants : int list;
      (* registered tenant ids under an explicit multi-tenant table;
         empty (and absent from the JSON) for single-tenant runs *)
  counters : (string * int) list;
  timeline : Timeline.t;
  events : Trace.record list;
}

(* [List.mem], [List.assoc_opt] and [List.remove_assoc] with a typed
   equality: Stdlib's versions compare through the polymorphic
   [compare], a C call per element. [remove_assoc] drops the first match
   only, as Stdlib's does. *)
let rec mem eq x = function [] -> false | y :: rest -> eq x y || mem eq x rest

let rec assoc_opt eq key = function
  | [] -> None
  | (k, v) :: rest -> if eq key k then Some v else assoc_opt eq key rest

let rec remove_assoc eq key = function
  | [] -> []
  | ((k, _) as pair) :: rest ->
      if eq key k then rest else pair :: remove_assoc eq key rest

let make_run ?(tenants = []) ~experiment ~policy ~seed ~duration ~cores
    ~counters trace =
  {
    experiment;
    policy;
    seed;
    duration;
    cores;
    tenants;
    counters = List.sort (fun (a, _) (b, _) -> compare a b) counters;
    timeline = Timeline.of_trace ~cores ~duration trace;
    events = Trace.records trace;
  }

let occupancy_to_json core (o : Timeline.occupancy) =
  Json.Obj
    [
      ("core", Json.Int core);
      ("dp_ns", Json.Int o.Timeline.dp);
      ("vcpu_ns", Json.Int o.Timeline.vcpu);
      ("switch_ns", Json.Int o.Timeline.switch);
      ("idle_ns", Json.Int o.Timeline.idle);
      ("total_ns", Json.Int (Timeline.total o));
    ]

let event_to_json (r : Trace.record) =
  Json.Obj
    [
      ("t_ns", Json.Int r.Trace.time);
      ("core", Json.Int r.Trace.core);
      ("cat", Json.Str r.Trace.category);
      ("msg", Json.Str r.Trace.message);
    ]

let run_to_json r =
  let tl = r.timeline in
  Json.Obj
    ([
      ("experiment", Json.Str r.experiment);
      ("policy", Json.Str r.policy);
      ("seed", Json.Int r.seed);
      ("duration_ns", Json.Int r.duration);
      ("cores", Json.Int r.cores);
    ]
    @ (match r.tenants with
      | [] -> []
      | ids -> [ ("tenants", Json.Arr (List.map (fun i -> Json.Int i) ids)) ])
    @ [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counters) );
      ( "timeline",
        Json.Arr
          (List.init r.cores (fun core ->
               occupancy_to_json core (Timeline.occupancy tl ~core))) );
      ( "event_counts",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Int v)) (Timeline.event_counts tl))
      );
      ("events_dropped", Json.Int (Timeline.dropped tl));
      ("events", Json.Arr (List.map event_to_json r.events));
    ])

let to_json runs =
  Json.Obj
    [
      ("schema", Json.Str schema); ("runs", Json.Arr (List.map run_to_json runs));
    ]

let to_string runs = Json.to_string (to_json runs)

let write_file path runs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc (to_json runs);
      output_char oc '\n')

(* --- validation (used by trace_lint and tests) --------------------------- *)

let ladder_rank = function
  | "normal" -> Some 0
  | "throttle" -> Some 1
  | "defer" -> Some 2
  | "shed" -> Some 3
  | "static_partition" -> Some 4
  | _ -> None

(* The only [Cat.overload] emitter is the governor's rung transition, so
   every overload event must carry the transition payload — optionally
   prefixed with the owning lane's [tenant=<id>] under a multi-tenant
   table. The tenant key is [-1] for the untagged (single-lane) chain, so
   each lane's ladder is validated as its own continuous chain. *)
let parse_transition msg =
  let body tenant msg =
    try
      Scanf.sscanf msg "seq=%d from=%s@ to=%s@ held=%d min=%d"
        (fun seq from to_ held min -> Some (tenant, seq, from, to_, held, min))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
  in
  match
    try
      Scanf.sscanf msg "tenant=%d %s@\n" (fun tid rest -> Some (tid, rest))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
  with
  | Some (tid, rest) when tid >= 0 -> body tid rest
  | Some _ | None -> body (-1) msg

(* The churn lifecycle's retirement marker: [retired tenant=<id>
   forced=<b>]. Once it appears, that tenant's lanes are frozen — any
   later per-tenant overload transition is a validation error. *)
let parse_retired msg =
  try Scanf.sscanf msg "retired tenant=%d forced=%B" (fun tid _ -> Some tid)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* Fleet exchange records, as emitted by Taichi_fleet.Fleet: sends and
   receives carry epoch stamps so the lint can check cross-NIC causality
   without pairing records across runs (the trace ring buffer may have
   dropped the matching send). *)
let parse_fleet_recv msg =
  try
    Scanf.sscanf msg "recv src=%d seq=%d epoch=%d sent=%d" (fun a b c d ->
        Some (a, b, c, d))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let parse_fleet_send msg =
  try
    Scanf.sscanf msg "send dst=%d seq=%d epoch=%d" (fun a b c ->
        Some (a, b, c))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let has_prefix prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Runs carrying fleet events must use the harness's per-NIC label
   convention, "<experiment>.nic<NN>" — the prefix is what groups one
   rack's exports back together. *)
let is_per_nic_label s =
  match String.rindex_opt s '.' with
  | None -> false
  | Some i ->
      let tail = String.sub s (i + 1) (String.length s - i - 1) in
      has_prefix "nic" tail
      && String.length tail > 3
      && (match int_of_string_opt (String.sub tail 3 (String.length tail - 3))
          with
         | Some n -> n >= 0
         | None -> false)

let validate_json j =
  let ( let* ) x f = match x with Ok v -> f v | Error _ as e -> e in
  let require msg = function Some v -> Ok v | None -> Error msg in
  let* s = require "missing schema" (Json.member "schema" j) in
  let* s = require "schema not a string" (Json.to_str s) in
  let* () = if s = schema then Ok () else Error ("unknown schema " ^ s) in
  let* runs = require "missing runs" (Json.member "runs" j) in
  let* runs = require "runs not an array" (Json.to_list runs) in
  let check_run r =
    let* dur = require "missing duration_ns" (Json.member "duration_ns" r) in
    let* dur = require "duration_ns not an int" (Json.to_int dur) in
    let* tl = require "missing timeline" (Json.member "timeline" r) in
    let* tl = require "timeline not an array" (Json.to_list tl) in
    let* cores = require "missing cores" (Json.member "cores" r) in
    let* cores = require "cores not an int" (Json.to_int cores) in
    let* () =
      if List.length tl = cores then Ok ()
      else Error "timeline row count does not match cores"
    in
    (* Counter snapshots are exported via [Counters.dump], whose contract
       is strictly-sorted-by-name output whatever order the handles were
       interned in; an unsorted (or duplicated) key means some export
       path bypassed it and the byte-identity story is broken. *)
    let* () =
      match Json.member "counters" r with
      | None -> Ok ()
      | Some (Json.Obj fields) ->
          let rec sorted = function
            | (a, _) :: ((b, _) :: _ as rest) ->
                if String.compare a b < 0 then sorted rest
                else
                  Error
                    (Printf.sprintf
                       "counters snapshot is not sorted by name (%S then %S)"
                       a b)
            | _ -> Ok ()
          in
          sorted fields
      | Some _ -> Error "counters not an object"
    in
    (* A run that recorded illegal core-state transitions (Permissive-mode
       degradation) is not a clean export, even if its timeline is
       well-formed. Counters only materialise once incremented, so an
       absent counter means zero. *)
    let* () =
      match Json.member "counters" r with
      | None -> Ok ()
      | Some cs -> (
          match Json.member "core_state.illegal" cs with
          | None -> Ok ()
          | Some v -> (
              match Json.to_int v with
              | Some n when n > 0 ->
                  Error "core_state.illegal counter is non-zero"
              | Some _ -> Ok ()
              | None -> Error "core_state.illegal not an int"))
    in
    (* The recovery and overload subsystems export monotone tallies; a
       negative value means a counter was decremented (or two exports were
       subtracted), either of which breaks the forensic story the trace is
       supposed to tell. *)
    let* () =
      match Json.member "counters" r with
      | None -> Ok ()
      | Some (Json.Obj fields) ->
          List.fold_left
            (fun acc (k, v) ->
              let* () = acc in
              let monotone prefix =
                String.length k >= String.length prefix
                && String.sub k 0 (String.length prefix) = prefix
              in
              if monotone "recovery." || monotone "overload."
                 || monotone "fleet." then
                match Json.to_int v with
                | Some n when n < 0 ->
                    Error (Printf.sprintf "counter %s is negative" k)
                | Some _ -> Ok ()
                | None -> Error (Printf.sprintf "counter %s not an int" k)
              else Ok ())
            (Ok ()) fields
      | Some _ -> Error "counters not an object"
    in
    (* Event-log discipline: timestamps must never run backwards, and
       each overload ladder (one chain per tenant lane; one untagged
       chain on single-tenant runs) must move one rung at a time, in
       sequence, with a continuous from/to chain that respects the
       minimum dwell. *)
    let* () =
      match Json.member "events" r with
      | None -> Ok ()
      | Some evs ->
          let* evs = require "events not an array" (Json.to_list evs) in
          let* _, _, _, fleet_seen =
            List.fold_left
              (fun acc ev ->
                let* prev_t, chains, retired, fleet_seen = acc in
                let* t = require "event missing t_ns" (Json.member "t_ns" ev) in
                let* t = require "event t_ns not an int" (Json.to_int t) in
                let* () =
                  if t < prev_t then
                    Error
                      (Printf.sprintf
                         "event times run backwards (%d after %d)" t prev_t)
                  else Ok ()
                in
                let* cat = require "event missing cat" (Json.member "cat" ev) in
                let* cat =
                  require "event cat not a string" (Json.to_str cat)
                in
                if cat = "churn" then
                  (* Record retirement markers: from here on the tenant's
                     lanes are frozen. A marker that does not parse would
                     leave its tenant's lanes unchecked, so it fails
                     validation; other churn payloads pass through. *)
                  let* retired =
                    match
                      Option.bind (Json.member "msg" ev) Json.to_str
                    with
                    | Some msg when has_prefix "retired " msg -> (
                        match parse_retired msg with
                        | Some tid -> Ok (tid :: retired)
                        | None ->
                            Error
                              (Printf.sprintf "malformed retirement marker %S"
                                 msg))
                    | Some _ | None -> Ok retired
                  in
                  Ok (t, chains, retired, fleet_seen)
                else if cat = "fleet" then
                  (* Cross-NIC causality: a receive must carry the epoch
                     its send happened in, strictly before the delivery
                     epoch — checked from the recv record alone, so a
                     ring-buffer-dropped send never fails the lint. *)
                  let* msg =
                    require "fleet event missing msg" (Json.member "msg" ev)
                  in
                  let* msg =
                    require "fleet event msg not a string" (Json.to_str msg)
                  in
                  let* () =
                    if has_prefix "recv " msg then
                      match parse_fleet_recv msg with
                      | None ->
                          Error
                            (Printf.sprintf "malformed fleet receive %S" msg)
                      | Some (src, seq, epoch, sent) ->
                          if src < 0 || seq < 0 then
                            Error
                              (Printf.sprintf
                                 "fleet receive with negative src/seq %S" msg)
                          else if sent >= epoch then
                            Error
                              (Printf.sprintf
                                 "fleet receive breaks causality: sent \
                                  epoch %d, delivered epoch %d (%S)"
                                 sent epoch msg)
                          else Ok ()
                    else if has_prefix "send " msg then
                      match parse_fleet_send msg with
                      | None ->
                          Error (Printf.sprintf "malformed fleet send %S" msg)
                      | Some (dst, seq, _epoch) ->
                          if dst < 0 || seq < 0 then
                            Error
                              (Printf.sprintf
                                 "fleet send with negative dst/seq %S" msg)
                          else Ok ()
                    else Ok ()
                  in
                  Ok (t, chains, retired, true)
                else if cat <> "overload" then Ok (t, chains, retired, fleet_seen)
                else
                  let* msg =
                    require "event missing msg" (Json.member "msg" ev)
                  in
                  let* msg =
                    require "event msg not a string" (Json.to_str msg)
                  in
                  let* tenant, seq, from, to_, held, min_dwell =
                    require
                      (Printf.sprintf "malformed overload transition %S" msg)
                      (parse_transition msg)
                  in
                  (* Frozen-after-retire: a retired tenant's ladder must
                     never move again — its lane is kept, not driven. *)
                  let* () =
                    if tenant >= 0 && mem Int.equal tenant retired then
                      Error
                        (Printf.sprintf
                           "overload transition for retired tenant %d (lane \
                            must stay frozen)"
                           tenant)
                    else Ok ()
                  in
                  let want_seq, prev_level =
                    Option.value ~default:(1, "normal")
                      (assoc_opt Int.equal tenant chains)
                  in
                  let lane_tag =
                    if tenant < 0 then ""
                    else Printf.sprintf " (tenant %d)" tenant
                  in
                  let* () =
                    if seq <> want_seq then
                      Error
                        (Printf.sprintf
                           "overload transition seq %d, expected %d%s" seq
                           want_seq lane_tag)
                    else Ok ()
                  in
                  let* () =
                    if from <> prev_level then
                      Error
                        (Printf.sprintf
                           "overload ladder chain broken: transition from %s \
                            but ladder was at %s%s"
                           from prev_level lane_tag)
                    else Ok ()
                  in
                  let* rf =
                    require
                      (Printf.sprintf "unknown overload level %s" from)
                      (ladder_rank from)
                  in
                  let* rt =
                    require
                      (Printf.sprintf "unknown overload level %s" to_)
                      (ladder_rank to_)
                  in
                  let* () =
                    if abs (rt - rf) <> 1 then
                      Error
                        (Printf.sprintf
                           "overload ladder skipped a rung (%s -> %s)%s" from
                           to_ lane_tag)
                    else Ok ()
                  in
                  let* () =
                    if held < min_dwell then
                      Error
                        (Printf.sprintf
                           "overload transition %d violated minimum dwell \
                            (held %dns < %dns)%s"
                           seq held min_dwell lane_tag)
                    else Ok ()
                  in
                  Ok
                    ( t,
                      (tenant, (want_seq + 1, to_))
                      :: remove_assoc Int.equal tenant chains,
                      retired,
                      fleet_seen ))
              (Ok (0, [], [], false))
              evs
          in
          if fleet_seen then
            let* label =
              require "missing experiment" (Json.member "experiment" r)
            in
            let* label =
              require "experiment not a string" (Json.to_str label)
            in
            if is_per_nic_label label then Ok ()
            else
              Error
                (Printf.sprintf
                   "run %S carries fleet events but is not labelled with \
                    the per-NIC \".nic<NN>\" suffix"
                   label)
          else Ok ()
    in
    (* Per-tenant counter sections: every [tenant.<id>.<suffix>] counter
       must be non-negative, belong to a tenant id the run registered,
       and — because each per-tenant increment mirrors a global one — the
       per-tenant values must sum to exactly the global [<suffix>]
       counter. *)
    let* () =
      let registered =
        match Json.member "tenants" r with
        | Some (Json.Arr ids) -> Some (List.filter_map Json.to_int ids)
        | Some _ | None -> None
      in
      match Json.member "counters" r with
      | None -> Ok ()
      | Some (Json.Obj fields) ->
          let tenant_of k =
            match
              try
                Scanf.sscanf k "tenant.%d.%s@\n" (fun id suffix ->
                    Some (id, suffix))
              with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
            with
            | Some (id, suffix) when suffix <> "" -> Some (id, suffix)
            | Some _ | None -> None
          in
          let* sums =
            List.fold_left
              (fun acc (k, v) ->
                let* sums = acc in
                match tenant_of k with
                | None -> Ok sums
                | Some (id, suffix) ->
                    let* n =
                      require
                        (Printf.sprintf "counter %s not an int" k)
                        (Json.to_int v)
                    in
                    let* () =
                      if n < 0 then
                        Error (Printf.sprintf "counter %s is negative" k)
                      else Ok ()
                    in
                    let* () =
                      match registered with
                      | Some ids when not (mem Int.equal id ids) ->
                          Error
                            (Printf.sprintf
                               "counter %s names unregistered tenant %d" k id)
                      | Some _ -> Ok ()
                      | None ->
                          Error
                            (Printf.sprintf
                               "per-tenant counter %s in a run with no \
                                tenants field"
                               k)
                    in
                    let prev =
                      Option.value ~default:0 (assoc_opt String.equal suffix sums)
                    in
                    Ok ((suffix, prev + n) :: remove_assoc String.equal suffix sums))
              (Ok []) fields
          in
          List.fold_left
            (fun acc (suffix, total) ->
              let* () = acc in
              let global =
                match assoc_opt String.equal suffix fields with
                | Some v -> Option.value ~default:0 (Json.to_int v)
                | None -> 0
              in
              if total <> global then
                Error
                  (Printf.sprintf
                     "per-tenant %s counters sum to %d but global is %d"
                     suffix total global)
              else Ok ())
            (Ok ()) sums
      | Some _ -> Error "counters not an object"
    in
    List.fold_left
      (fun acc row ->
        let* () = acc in
        let field name =
          let* v = require ("missing " ^ name) (Json.member name row) in
          require (name ^ " not an int") (Json.to_int v)
        in
        let* dp = field "dp_ns" in
        let* vcpu = field "vcpu_ns" in
        let* switch = field "switch_ns" in
        let* idle = field "idle_ns" in
        let* total = field "total_ns" in
        if dp + vcpu + switch + idle <> total then
          Error "occupancy buckets do not sum to total_ns"
        else if total <> dur then
          Error "core occupancy total does not equal duration_ns"
        else Ok ())
      (Ok ()) tl
  in
  List.fold_left
    (fun acc r ->
      let* () = acc in
      check_run r)
    (Ok ()) runs

let validate_string s =
  match Json.parse_opt s with
  | None -> Error "not valid JSON"
  | Some j -> validate_json j
