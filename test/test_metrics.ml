(* Tests for recorders, SLOs and table rendering. *)

open Taichi_engine
open Taichi_metrics

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_recorder_observe () =
  let r = Recorder.create "lat" in
  List.iter (Recorder.observe r) [ 10; 20; 30 ];
  checki "count" 3 (Recorder.count r);
  checki "min" 10 (Recorder.min_value r);
  checki "max" 30 (Recorder.max_value r);
  Alcotest.(check (float 1e-9)) "mean" 20.0 (Recorder.mean r);
  checki "p50" 20 (Recorder.percentile r 50.0)

(* The summary's floats and the histogram's running sum are stored
   flat, and [Stats.add] is inlined into [Stats.add_int], so a sample
   boxes nothing. *)
let test_recorder_observe_alloc_free () =
  let r = Recorder.create "lat" in
  Test_engine.check_alloc_free "Recorder.observe"
    (Test_engine.minor_words_per_op (fun i ->
         Recorder.observe r (1000 + (i land 1023))))

let test_recorder_throughput () =
  let r = Recorder.create "t" in
  for _ = 1 to 500 do
    Recorder.observe r 1
  done;
  Alcotest.(check (float 1e-6)) "per sec" 1000.0
    (Recorder.throughput_per_sec r ~duration:(Time_ns.ms 500))

let test_recorder_clear () =
  let r = Recorder.create "x" in
  Recorder.observe r 5;
  Recorder.clear r;
  checki "count reset" 0 (Recorder.count r)

(* Regression: [clear] used to reset the histogram but not the Welford
   summary, so post-clear means and stddevs still blended in every
   pre-clear sample. *)
let test_recorder_clear_then_observe () =
  let r = Recorder.create "w" in
  List.iter (Recorder.observe r) [ 1000; 2000; 4000 ];
  Recorder.clear r;
  List.iter (Recorder.observe r) [ 10; 20; 30 ];
  checki "count" 3 (Recorder.count r);
  Alcotest.(check (float 1e-9)) "mean reflects only post-clear" 20.0
    (Recorder.mean r);
  Alcotest.(check (float 1e-9)) "stddev reflects only post-clear" 10.0
    (Recorder.stddev r);
  checki "min" 10 (Recorder.min_value r);
  checki "max" 30 (Recorder.max_value r)

let test_slo_latency () =
  let r = Recorder.create "lat" in
  for i = 1 to 100 do
    Recorder.observe r (i * 1000)
  done;
  let ok = Slo.latency_p "p99" ~percentile:99.0 ~bound:(Time_ns.us 150) in
  let bad = Slo.latency_p "p99-tight" ~percentile:99.0 ~bound:(Time_ns.us 50) in
  let v1 = Slo.check ok r ~duration:(Time_ns.sec 1) in
  let v2 = Slo.check bad r ~duration:(Time_ns.sec 1) in
  checkb "satisfied" true v1.Slo.satisfied;
  checkb "violated" false v2.Slo.satisfied

let test_slo_throughput () =
  let r = Recorder.create "tput" in
  for _ = 1 to 1000 do
    Recorder.observe r 1
  done;
  let slo = Slo.min_throughput "tput" ~per_sec:900.0 in
  let v = Slo.check slo r ~duration:(Time_ns.sec 1) in
  checkb "satisfied" true v.Slo.satisfied;
  let slo2 = Slo.min_throughput "tput" ~per_sec:1100.0 in
  checkb "violated" false (Slo.check slo2 r ~duration:(Time_ns.sec 1)).Slo.satisfied

let test_slo_empty_recorder () =
  let r = Recorder.create "empty" in
  let slo = Slo.mean_latency "m" (Time_ns.us 10) in
  checkb "empty unsatisfied" false (Slo.check slo r ~duration:(Time_ns.sec 1)).Slo.satisfied

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

(* All four objective kinds against one recorder of 1..100us samples:
   mean 50.5us, max 100us, 100 samples over the duration. *)
let test_slo_all_kinds () =
  let r = Recorder.create "lat" in
  for i = 1 to 100 do
    Recorder.observe r (Time_ns.us i)
  done;
  let dur = Time_ns.ms 100 in
  let verdict slo = (Slo.check slo r ~duration:dur).Slo.satisfied in
  checkb "p99 ok" true
    (verdict (Slo.latency_p "p" ~percentile:99.0 ~bound:(Time_ns.us 150)));
  checkb "p99 violated" false
    (verdict (Slo.latency_p "p" ~percentile:99.0 ~bound:(Time_ns.us 50)));
  checkb "mean ok" true (verdict (Slo.mean_latency "m" (Time_ns.us 60)));
  checkb "mean violated" false (verdict (Slo.mean_latency "m" (Time_ns.us 40)));
  checkb "max ok" true (verdict (Slo.max_latency "x" (Time_ns.us 110)));
  checkb "max violated" false (verdict (Slo.max_latency "x" (Time_ns.us 50)));
  (* 100 samples / 100 ms = 1000/s. *)
  checkb "throughput ok" true
    (verdict (Slo.min_throughput "t" ~per_sec:900.0));
  checkb "throughput violated" false
    (verdict (Slo.min_throughput "t" ~per_sec:1100.0));
  checki "check_all covers every slo" 2
    (List.length
       (Slo.check_all
          [ Slo.mean_latency "m" (Time_ns.us 60);
            Slo.min_throughput "t" ~per_sec:900.0 ]
          r ~duration:dur))

(* A window that cannot demonstrate throughput — no samples, or a
   degenerate duration — must produce a definite "unsatisfied, 0/s"
   verdict, never a 0/0 artifact. *)
let test_slo_min_throughput_degenerate () =
  let empty = Recorder.create "empty" in
  let slo = Slo.min_throughput "t" ~per_sec:1.0 in
  let v = Slo.check slo empty ~duration:(Time_ns.sec 1) in
  checkb "empty window unsatisfied" false v.Slo.satisfied;
  Alcotest.(check (float 0.0)) "empty window measures zero" 0.0 v.Slo.measured;
  let r = Recorder.create "some" in
  Recorder.observe r 1;
  let v = Slo.check slo r ~duration:0 in
  checkb "zero duration unsatisfied" false v.Slo.satisfied;
  Alcotest.(check (float 0.0)) "zero duration measures zero" 0.0 v.Slo.measured;
  (* Even a 0/s target cannot be "demonstrated" by an empty window. *)
  let v =
    Slo.check (Slo.min_throughput "t" ~per_sec:0.0) empty
      ~duration:(Time_ns.sec 1)
  in
  checkb "vacuous target still unsatisfied on empty" false v.Slo.satisfied

let test_slo_check_hist () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ Time_ns.us 10; Time_ns.us 20; Time_ns.us 30 ];
  let v =
    Slo.check_hist
      (Slo.latency_p "p" ~percentile:50.0 ~bound:(Time_ns.us 25))
      h ~duration:(Time_ns.ms 1)
  in
  checkb "hist p50 ok" true v.Slo.satisfied;
  let v =
    Slo.check_hist (Slo.min_throughput "t" ~per_sec:1000.0) h
      ~duration:(Time_ns.ms 1)
  in
  (* 3 samples / 1 ms = 3000/s. *)
  checkb "hist throughput ok" true v.Slo.satisfied

let test_slo_pp_verdict () =
  let empty = Recorder.create "empty" in
  let v =
    Slo.check
      (Slo.latency_p "dp.p99" ~percentile:99.0 ~bound:(Time_ns.us 100))
      empty ~duration:(Time_ns.sec 1)
  in
  let s = Format.asprintf "%a" Slo.pp_verdict v in
  checkb "empty latency prints no-samples" true (contains s "no samples");
  checkb "violated status printed" true (contains s "VIOLATED");
  let r = Recorder.create "t" in
  Recorder.observe r 1;
  let s =
    Format.asprintf "%a" Slo.pp_verdict
      (Slo.check (Slo.min_throughput "t" ~per_sec:0.5) r
         ~duration:(Time_ns.sec 1))
  in
  checkb "throughput prints rate" true (contains s "/s");
  checkb "satisfied status printed" true (contains s "OK")

(* --- Quantile (sliding-window sketch) ------------------------------------- *)

let test_quantile_basic () =
  let q = Quantile.create ~slices:4 ~slice:(Time_ns.us 100) () in
  checki "window" (Time_ns.us 400) (Quantile.window q);
  checkb "empty sketch" true (Quantile.quantile q ~now:0 50.0 = None);
  Quantile.observe q ~now:10 (Time_ns.us 10);
  checki "count" 1 (Quantile.count q ~now:10);
  let v = Option.get (Quantile.quantile q ~now:10 99.0) in
  checkb "estimate errs high" true (v >= Time_ns.us 10);
  checkb "estimate within a sub-bucket" true
    (v <= Time_ns.us 10 + (Time_ns.us 10 / 8))

let test_quantile_window_expiry () =
  let q = Quantile.create ~slices:4 ~slice:(Time_ns.us 100) () in
  (* A huge early sample and a small late one: once the early slice falls
     out of the window only the small sample answers. *)
  Quantile.observe q ~now:0 (Time_ns.ms 10);
  Quantile.observe q ~now:(Time_ns.us 380) (Time_ns.us 5);
  checki "both in window" 2 (Quantile.count q ~now:(Time_ns.us 390));
  (* Eviction is slice-granular: at 500us the window covers slices 2..5,
     so the t=0 sample is gone and the t=380us one survives. *)
  let now = Time_ns.us 500 in
  checki "early slice expired" 1 (Quantile.count q ~now);
  let v = Option.get (Quantile.quantile q ~now 100.0) in
  checkb "max reflects only the survivor" true (v < Time_ns.us 10);
  (* Far past the window everything is gone. *)
  let now = Time_ns.ms 2 in
  checki "all expired" 0 (Quantile.count q ~now);
  checkb "quantile empty again" true (Quantile.quantile q ~now 99.0 = None)

let test_quantile_determinism () =
  let feed q =
    for i = 1 to 500 do
      Quantile.observe q
        ~now:(i * Time_ns.us 7)
        (Time_ns.us (1 + ((i * 37) mod 200)))
    done;
    List.map
      (fun p -> Quantile.quantile q ~now:(Time_ns.ms 4) p)
      [ 50.0; 90.0; 99.0; 100.0 ]
  in
  let a = feed (Quantile.create ~slices:8 ~slice:(Time_ns.us 200) ()) in
  let b = feed (Quantile.create ~slices:8 ~slice:(Time_ns.us 200) ()) in
  checkb "identical feeds answer identically" true (a = b)

let test_quantile_invalid_args () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "zero slice rejected" true (raises (fun () ->
      Quantile.create ~slice:0 ()));
  checkb "zero slices rejected" true (raises (fun () ->
      Quantile.create ~slices:0 ~slice:1 ()));
  let q = Quantile.create ~slice:(Time_ns.us 10) () in
  Quantile.observe q ~now:0 5;
  checkb "out-of-range percentile rejected" true (raises (fun () ->
      Quantile.quantile q ~now:0 101.0))

(* The sketch's fixed size is its aggregate: slice logs start empty. *)
let test_quantile_footprint () =
  Test_engine.check_footprint "fresh 8-slice Quantile" ~cap:(2 * 1024)
    (Quantile.create ~slices:8 ~slice:(Time_ns.us 200) ())

(* Once a full window has passed at a steady rate, every slot's log has
   reached its working size and is reused as the slot turns over. *)
let test_quantile_observe_alloc_free () =
  let q = Quantile.create ~slices:8 ~slice:(Time_ns.us 200) () in
  let now = ref 0 in
  let feed i =
    now := !now + Time_ns.us 1;
    Quantile.observe q ~now:!now (1000 + ((i * 37) land 65535))
  in
  for i = 0 to (8 * 200) - 1 do
    feed i
  done;
  Test_engine.check_alloc_free "Quantile.observe"
    (Test_engine.minor_words_per_op feed)

(* The dense sketch in [Quantile_legacy] is the oracle: random programs
   of clock steps (within a slice, across one, past the whole window),
   samples (small, large, negative, and [max_int], which clamps to the
   top bucket) and reads at fixed and random percentiles must answer
   identically from both. *)
type q_op = Step of int | Observe of int | Count | Read of float

let gen_q_program =
  let open QCheck.Gen in
  let* slices = int_range 1 9 in
  let* slice = int_range 1 500 in
  let window = slices * slice in
  let step =
    frequency
      [
        (6, int_range 0 (slice / 4));
        (3, int_range slice (2 * slice));
        (1, int_range window (3 * window));
      ]
  in
  let sample =
    frequency
      [
        (4, int_range 0 63);
        (4, int_range 0 5_000_000);
        (1, int_range (-1000) (-1));
        (1, return max_int);
      ]
  in
  let pct =
    frequency
      [
        (1, return 0.0);
        (1, return 50.0);
        (2, return 99.0);
        (1, return 100.0);
        (2, float_range 0.0 100.0);
      ]
  in
  let op =
    frequency
      [
        (3, map (fun d -> Step d) step);
        (10, map (fun v -> Observe v) sample);
        (1, return Count);
        (3, map (fun p -> Read p) pct);
      ]
  in
  let* ops = list_size (int_range 0 600) op in
  return (slices, slice, ops)

let prop_quantile_oracle =
  QCheck.Test.make ~name:"Quantile == dense sketch" ~count:300
    (QCheck.make
       ~print:(fun (slices, slice, ops) ->
         Printf.sprintf "slices=%d slice=%d ops=%d" slices slice
           (List.length ops))
       gen_q_program)
    (fun (slices, slice, ops) ->
      let q = Quantile.create ~slices ~slice ()
      and d = Quantile_legacy.create ~slices ~slice () in
      let now = ref 0 in
      List.for_all
        (function
          | Step dt ->
              now := !now + dt;
              true
          | Observe v ->
              Quantile.observe q ~now:!now v;
              Quantile_legacy.observe d ~now:!now v;
              true
          | Count -> Quantile.count q ~now:!now = Quantile_legacy.count d ~now:!now
          | Read p ->
              Quantile.quantile q ~now:!now p
              = Quantile_legacy.quantile d ~now:!now p)
        ops)

let test_table_render () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  checkb "contains header" true (contains s "name");
  checkb "contains row" true (contains s "alpha");
  checkb "right-aligned value" true (contains s " 1");
  (* Rows render in insertion order. *)
  let lines = String.split_on_char '\n' s in
  checki "line count (header + rule + 2 rows + trailing)" 5 (List.length lines)

let test_table_mismatch () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Table.add_row: cell count mismatch") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_table_cells () =
  Alcotest.(check string) "pct" "1.53%" (Table.cell_pct 0.0153);
  Alcotest.(check string) "big" "12346" (Table.cell_f 12345.6);
  Alcotest.(check string) "small" "1.234" (Table.cell_f 1.2341)

(* --- Json ----------------------------------------------------------------- *)

let test_json_roundtrip () =
  let open Json in
  let v =
    Obj
      [
        ("a", Int 1);
        ("b", Arr [ Null; Bool true; Str "x\"y\n\t\\z" ]);
        ("c", Float 1.5);
        ("d", Obj []);
        ("e", Int (-42));
        ("f", Arr [ Arr []; Obj [] ]);
      ]
  in
  let s = to_string v in
  checkb "roundtrip" true (parse s = v);
  checkb "whitespace tolerated" true
    (parse " { \"k\" : [ 1 , 2 ] } " = Obj [ ("k", Arr [ Int 1; Int 2 ]) ]);
  checkb "empty containers with whitespace" true
    (parse "{ \"a\" : [ ] , \"b\" : { } }" = Obj [ ("a", Arr []); ("b", Obj []) ])

let test_json_rejects_malformed () =
  checkb "unterminated" true (Json.parse_opt "{\"a\":" = None);
  checkb "trailing garbage" true (Json.parse_opt "1 2" = None);
  checkb "bare word" true (Json.parse_opt "nope" = None);
  checkb "dangling comma" true (Json.parse_opt "[1,]" = None);
  checkb "unclosed empty object" true (Json.parse_opt "{" = None);
  checkb "unclosed empty array" true (Json.parse_opt "[ " = None)

(* --- Timeline -------------------------------------------------------------- *)

let test_timeline_occupancy () =
  let tr = Trace.create ~enabled:true () in
  let st core time msg =
    Trace.emit tr ~time ~core ~category:Trace.Cat.core_state msg
  in
  st 0 100 Trace.Cat.state_dp;
  st 0 400 Trace.Cat.state_switch;
  st 0 450 Trace.Cat.state_vcpu;
  st 1 200 Trace.Cat.state_dp;
  (* Non-state records only feed the per-category counts. *)
  Trace.emit tr ~time:300 ~category:Trace.Cat.sched_place "noise";
  let tl = Timeline.of_trace ~cores:2 ~duration:1000 tr in
  let o0 = Timeline.occupancy tl ~core:0 in
  checki "core0 idle" 100 o0.Timeline.idle;
  checki "core0 dp" 300 o0.Timeline.dp;
  checki "core0 switch" 50 o0.Timeline.switch;
  checki "core0 vcpu" 550 o0.Timeline.vcpu;
  checki "core0 sums to duration" 1000 (Timeline.total o0);
  let o1 = Timeline.occupancy tl ~core:1 in
  checki "core1 idle" 200 o1.Timeline.idle;
  checki "core1 dp" 800 o1.Timeline.dp;
  checki "core1 sums to duration" 1000 (Timeline.total o1);
  checki "dropped" 0 (Timeline.dropped tl);
  Alcotest.(check (list (pair string int)))
    "event counts"
    [ (Trace.Cat.core_state, 4); (Trace.Cat.sched_place, 1) ]
    (Timeline.event_counts tl)

(* Random state transitions: whatever the trace says, the four buckets of
   every core partition [0, duration]. *)
let prop_timeline_partitions =
  QCheck.Test.make ~name:"timeline buckets sum to duration" ~count:100
    QCheck.(
      list_of_size (Gen.int_range 0 60)
        (pair (int_range 0 3) (pair (int_range 0 5000) (int_range 0 3))))
    (fun events ->
      let tr = Trace.create ~enabled:true () in
      let states =
        [|
          Trace.Cat.state_dp; Trace.Cat.state_vcpu;
          Trace.Cat.state_switch; Trace.Cat.state_idle;
        |]
      in
      List.iter
        (fun (core, (time, st)) ->
          Trace.emit tr ~time ~core ~category:Trace.Cat.core_state states.(st))
        (List.sort compare events);
      let duration = 5000 in
      let tl = Timeline.of_trace ~cores:4 ~duration tr in
      List.for_all
        (fun core -> Timeline.total (Timeline.occupancy tl ~core) = duration)
        [ 0; 1; 2; 3 ])

let suite =
  [
    ("recorder observe", `Quick, test_recorder_observe);
    ( "recorder observe allocates nothing",
      `Quick,
      test_recorder_observe_alloc_free );
    ("recorder throughput", `Quick, test_recorder_throughput);
    ("recorder clear", `Quick, test_recorder_clear);
    ("recorder clear then observe", `Quick, test_recorder_clear_then_observe);
    ("json roundtrip", `Quick, test_json_roundtrip);
    ("json rejects malformed", `Quick, test_json_rejects_malformed);
    ("timeline occupancy fold", `Quick, test_timeline_occupancy);
    QCheck_alcotest.to_alcotest prop_timeline_partitions;
    ("slo latency", `Quick, test_slo_latency);
    ("slo throughput", `Quick, test_slo_throughput);
    ("slo empty recorder", `Quick, test_slo_empty_recorder);
    ("slo all objective kinds", `Quick, test_slo_all_kinds);
    ( "slo throughput degenerate windows",
      `Quick,
      test_slo_min_throughput_degenerate );
    ("slo check_hist", `Quick, test_slo_check_hist);
    ("slo verdict printing", `Quick, test_slo_pp_verdict);
    ("quantile basic", `Quick, test_quantile_basic);
    ("quantile window expiry", `Quick, test_quantile_window_expiry);
    ("quantile determinism", `Quick, test_quantile_determinism);
    ("quantile invalid args", `Quick, test_quantile_invalid_args);
    ("quantile footprint", `Quick, test_quantile_footprint);
    ( "quantile observe allocates nothing once warm",
      `Quick,
      test_quantile_observe_alloc_free );
    QCheck_alcotest.to_alcotest prop_quantile_oracle;
    ("table render", `Quick, test_table_render);
    ("table mismatch", `Quick, test_table_mismatch);
    ("table cell formatting", `Quick, test_table_cells);
  ]
