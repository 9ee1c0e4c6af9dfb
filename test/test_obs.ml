(* Observability layer: metrics registry, span profiler, trace recorder,
   and the engine-level guarantee that an attached sink never changes the
   simulation (bit-identical stats, pinned below). *)

module Obs = Adhoc_obs
module Metrics = Adhoc_obs.Metrics
module Span = Adhoc_obs.Span
module Trace = Adhoc_obs.Trace
module Graph = Adhoc_graph.Graph
module Cost = Adhoc_graph.Cost
module Pipeline = Adhoc.Pipeline
open Adhoc_routing
open Helpers

let case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_counter () =
  let m = Metrics.create () in
  let c = Metrics.counter m "hits" in
  Metrics.incr c;
  Metrics.add c 4;
  (* Registration under an existing name returns the same instrument. *)
  Metrics.incr (Metrics.counter m "hits");
  (match Metrics.snapshot m with
  | [ ("hits", Metrics.Counter 6) ] -> ()
  | _ -> Alcotest.fail "counter snapshot mismatch");
  Alcotest.check_raises "negative add"
    (Invalid_argument "Metrics.add: negative increment") (fun () -> Metrics.add c (-1))

let test_metrics_gauge () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "height" in
  Metrics.set g 3.;
  Metrics.set g 1.5;
  match Metrics.snapshot m with
  | [ ("height", Metrics.Gauge v) ] -> check_close "last write wins" 1.5 v
  | _ -> Alcotest.fail "gauge snapshot mismatch"

let test_metrics_histogram_boundaries () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" ~buckets:[| 1.; 2.; 5. |] in
  (* le-semantics: bin i counts observations in (b(i-1), b(i)]. *)
  Metrics.observe h 0.5 (* bin 0 *);
  Metrics.observe h 1.0 (* bin 0: equal to a bound lands at that bound *);
  Metrics.observe h 1.5 (* bin 1 *);
  Metrics.observe h 2.0 (* bin 1 *);
  Metrics.observe h 5.0 (* bin 2 *);
  Metrics.observe h 7.0 (* overflow *);
  match Metrics.snapshot m with
  | [ ("lat", Metrics.Histogram { buckets; counts; total; sum }) ] ->
      Alcotest.(check (array (float 0.))) "buckets" [| 1.; 2.; 5. |] buckets;
      Alcotest.(check (array int)) "counts" [| 2; 2; 1; 1 |] counts;
      Alcotest.(check int) "total" 6 total;
      check_close "sum" 17. sum
  | _ -> Alcotest.fail "histogram snapshot mismatch"

let test_metrics_kind_clash () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.check_raises "gauge under counter name"
    (Invalid_argument "Metrics: \"x\" is already a counter") (fun () ->
      ignore (Metrics.gauge m "x"))

let test_metrics_bad_buckets () =
  let m = Metrics.create () in
  Alcotest.check_raises "non-increasing buckets"
    (Invalid_argument "Metrics.histogram: buckets must be strictly increasing")
    (fun () -> ignore (Metrics.histogram m "h" ~buckets:[| 1.; 1. |]))

let test_metrics_snapshot_sorted () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "b");
  ignore (Metrics.counter m "a");
  ignore (Metrics.counter m "c");
  Alcotest.(check (list string)) "sorted by name" [ "a"; "b"; "c" ]
    (List.map fst (Metrics.snapshot m))

(* ------------------------------------------------------------------ *)
(* Span                                                                *)

let test_span_nesting () =
  let s = Span.create () in
  Span.enter s "outer";
  Span.enter s "inner";
  Span.leave s;
  Span.enter s "inner";
  Span.leave s;
  Span.leave s;
  match Span.totals s with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner label" "inner" inner.Span.label;
      Alcotest.(check int) "inner count" 2 inner.Span.count;
      Alcotest.(check string) "outer label" "outer" outer.Span.label;
      Alcotest.(check int) "outer count" 1 outer.Span.count;
      (* Inclusive timing: the outer span contains both inner spans. *)
      Alcotest.(check bool) "outer >= inner" true
        (outer.Span.seconds >= inner.Span.seconds);
      Alcotest.(check bool) "non-negative" true (inner.Span.seconds >= 0.)
  | ts -> Alcotest.failf "expected 2 labels, got %d" (List.length ts)

let test_span_unbalanced_leave () =
  let s = Span.create () in
  Alcotest.check_raises "leave without enter"
    (Invalid_argument "Span.leave: no open span") (fun () -> Span.leave s)

let test_span_time_exception_safe () =
  let s = Span.create () in
  (try Span.time s "work" (fun () -> failwith "boom") with Failure _ -> ());
  (* The span closed despite the exception: totals has it and the stack is
     balanced, so a fresh leave still raises. *)
  (match Span.totals s with
  | [ t ] ->
      Alcotest.(check string) "label" "work" t.Span.label;
      Alcotest.(check int) "count" 1 t.Span.count
  | _ -> Alcotest.fail "span not accumulated");
  Alcotest.check_raises "stack balanced"
    (Invalid_argument "Span.leave: no open span") (fun () -> Span.leave s)

let test_span_reset () =
  let s = Span.create () in
  Span.time s "a" (fun () -> ());
  Span.reset s;
  Alcotest.(check int) "empty after reset" 0 (List.length (Span.totals s))

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let sample step =
  {
    Trace.step;
    buffered = step;
    max_height = 1;
    mean_height = 0.5;
    injected = 0;
    delivered = 0;
    dropped = 0;
    sends = 0;
    failed_sends = 0;
    active_edges = 0;
  }

let test_trace_stride () =
  let tr = Trace.create ~stride:3 () in
  let recorded = ref [] in
  for step = 0 to 10 do
    if Trace.wants tr ~step then begin
      Trace.record tr (sample step);
      recorded := step :: !recorded
    end
  done;
  Alcotest.(check (list int)) "steps on stride" [ 0; 3; 6; 9 ] (List.rev !recorded);
  Alcotest.(check int) "length" 4 (Trace.length tr);
  Alcotest.(check (list int)) "samples in order" [ 0; 3; 6; 9 ]
    (Array.to_list (Array.map (fun s -> s.Trace.step) (Trace.samples tr)))

let test_trace_growth () =
  let tr = Trace.create ~initial_capacity:2 () in
  for step = 0 to 99 do
    Trace.record tr (sample step)
  done;
  Alcotest.(check int) "grows past capacity" 100 (Trace.length tr);
  let ss = Trace.samples tr in
  Alcotest.(check int) "first" 0 ss.(0).Trace.step;
  Alcotest.(check int) "last" 99 ss.(99).Trace.step

let test_trace_jsonl_lines () =
  let tr = Trace.create () in
  for step = 0 to 4 do
    Trace.record tr (sample step)
  done;
  let file = Filename.temp_file "trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Trace.save_jsonl tr file;
      let ic = open_in file in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "one line per sample" 5 (List.length lines);
      List.iteri
        (fun i line ->
          let want = Printf.sprintf "{\"step\":%d," i in
          Alcotest.(check bool)
            (Printf.sprintf "line %d starts with its step" i)
            true
            (String.length line > String.length want
            && String.sub line 0 (String.length want) = want
            && line.[String.length line - 1] = '}'))
        lines)

let test_trace_csv_shape () =
  let tr = Trace.create () in
  Trace.record tr (sample 0);
  Trace.record tr (sample 1);
  let file = Filename.temp_file "trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Trace.save_csv tr file;
      let ic = open_in file in
      let header = input_line ic in
      let row0 = input_line ic in
      let _row1 = input_line ic in
      let eof = try ignore (input_line ic); false with End_of_file -> true in
      close_in ic;
      Alcotest.(check bool) "eof after rows" true eof;
      let cols s = List.length (String.split_on_char ',' s) in
      Alcotest.(check int) "header arity matches rows" (cols header) (cols row0);
      Alcotest.(check string) "step column first" "step"
        (List.hd (String.split_on_char ',' header)))

(* ------------------------------------------------------------------ *)
(* Engine golden: a sink never changes the simulation                  *)

(* Fixed instance + workloads; the stats below were captured from the
   pre-observability engine and pin both "obs disabled" and "obs enabled"
   runs bit-identically. *)
let fixture =
  lazy
    (let rng = Prng.create 42 in
     let points = Adhoc_pointset.Generators.uniform rng 80 in
     let range = 1.5 *. Adhoc_topo.Udg.critical_range points in
     let b = Pipeline.prepare ~theta:(Float.pi /. 6.) ~range points in
     let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:100 in
     let config =
       { Workload.horizon = 600; attempts = 400; slack = 12; interference_free = false }
     in
     let w =
       Workload.flows config ~rng:(Prng.create 5) ~graph:b.Pipeline.overlay
         ~cost:Cost.length ~num_flows:3
     in
     let wq =
       Workload.flows ~conflict:b.Pipeline.conflict
         { config with Workload.interference_free = true }
         ~rng:(Prng.create 6) ~graph:b.Pipeline.overlay ~cost:Cost.length ~num_flows:3
     in
     (b, params, w, wq))

let golden_pad =
  {
    Engine.steps = 800;
    injected = 252;
    dropped = 0;
    delivered = 145;
    sends = 710;
    failed_sends = 0;
    total_cost = 106.59489637196208;
    peak_height = 8;
    remaining = 107;
  }

let golden_plain =
  {
    Engine.steps = 800;
    injected = 399;
    dropped = 0;
    delivered = 364;
    sends = 1093;
    failed_sends = 0;
    total_cost = 156.08249602281123;
    peak_height = 13;
    remaining = 35;
  }

let golden_csma =
  {
    Engine.steps = 800;
    injected = 399;
    dropped = 0;
    delivered = 217;
    sends = 983;
    failed_sends = 0;
    total_cost = 142.52346657104204;
    peak_height = 10;
    remaining = 182;
  }

let check_stats name (expected : Engine.stats) (got : Engine.stats) =
  Alcotest.(check int) (name ^ " steps") expected.Engine.steps got.Engine.steps;
  Alcotest.(check int) (name ^ " injected") expected.Engine.injected got.Engine.injected;
  Alcotest.(check int) (name ^ " dropped") expected.Engine.dropped got.Engine.dropped;
  Alcotest.(check int) (name ^ " delivered") expected.Engine.delivered got.Engine.delivered;
  Alcotest.(check int) (name ^ " sends") expected.Engine.sends got.Engine.sends;
  Alcotest.(check int) (name ^ " failed") expected.Engine.failed_sends got.Engine.failed_sends;
  (* Bit-identical, not approximately equal. *)
  Alcotest.(check bool)
    (name ^ " total_cost bit-identical")
    true
    (Int64.equal
       (Int64.bits_of_float expected.Engine.total_cost)
       (Int64.bits_of_float got.Engine.total_cost));
  Alcotest.(check int) (name ^ " peak") expected.Engine.peak_height got.Engine.peak_height;
  Alcotest.(check int) (name ^ " remaining") expected.Engine.remaining got.Engine.remaining

let run_pad ?obs () =
  let b, params, _, wq = Lazy.force fixture in
  Engine.run_mac_given ~cooldown:200 ?obs ~pad:b.Pipeline.conflict
    ~graph:b.Pipeline.overlay ~cost:Cost.length ~params wq

let run_plain ?obs () =
  let b, params, w, _ = Lazy.force fixture in
  Engine.run_mac_given ~cooldown:200 ?obs ~graph:b.Pipeline.overlay ~cost:Cost.length
    ~params w

let run_csma ?obs () =
  let b, params, w, _ = Lazy.force fixture in
  let mac = Adhoc_mac.Mac.csma ~rng:(Prng.create 7) b.Pipeline.conflict in
  Engine.run_with_mac ~cooldown:200 ?obs ~collisions:b.Pipeline.conflict
    ~graph:b.Pipeline.overlay ~cost:Cost.length ~params ~mac w

let test_golden_disabled () =
  check_stats "pad" golden_pad (run_pad ());
  check_stats "plain" golden_plain (run_plain ());
  check_stats "csma" golden_csma (run_csma ())

let test_golden_enabled () =
  (* A full sink — metrics, spans and a stride-1 trace — must not perturb
     the run: same golden numbers, one trace sample per step. *)
  let obs = Obs.create ~trace:(Trace.create ()) () in
  check_stats "pad+obs" golden_pad (run_pad ~obs ());
  Alcotest.(check int) "one sample per step" 800
    (Trace.length (Option.get obs.Obs.trace));
  let labels = List.map (fun t -> t.Span.label) (Span.totals obs.Obs.spans) in
  Alcotest.(check bool) "decide span" true (List.mem "engine/decide" labels);
  Alcotest.(check bool) "apply span" true (List.mem "engine/apply" labels);
  (match List.assoc_opt "engine.delivered" (Metrics.snapshot obs.Obs.metrics) with
  | Some (Metrics.Counter d) -> Alcotest.(check int) "delivered counter" 145 d
  | _ -> Alcotest.fail "engine.delivered counter missing")

let test_golden_enabled_csma () =
  let obs = Obs.create ~trace:(Trace.create ~stride:10 ()) () in
  check_stats "csma+obs" golden_csma (run_csma ~obs ());
  Alcotest.(check int) "stride-10 sample count" 80
    (Trace.length (Option.get obs.Obs.trace));
  let labels = List.map (fun t -> t.Span.label) (Span.totals obs.Obs.spans) in
  Alcotest.(check bool) "mac span" true
    (List.exists (fun l -> String.length l >= 4 && String.sub l 0 4 = "mac/") labels)

let test_trace_deltas_sum () =
  (* Per-sample deltas must partition the run totals: summing the stride-1
     trace reproduces the aggregate stats. *)
  let obs = Obs.create ~trace:(Trace.create ()) () in
  let stats = run_plain ~obs () in
  let tr = Option.get obs.Obs.trace in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 (Trace.samples tr) in
  Alcotest.(check int) "injected" stats.Engine.injected (sum (fun s -> s.Trace.injected));
  Alcotest.(check int) "delivered" stats.Engine.delivered
    (sum (fun s -> s.Trace.delivered));
  Alcotest.(check int) "sends" stats.Engine.sends (sum (fun s -> s.Trace.sends));
  Alcotest.(check int) "dropped" stats.Engine.dropped (sum (fun s -> s.Trace.dropped));
  let peak = Array.fold_left (fun a s -> max a s.Trace.max_height) 0 (Trace.samples tr) in
  Alcotest.(check int) "peak via trace" stats.Engine.peak_height peak

let test_tracked_engine_obs_identical () =
  let b, params, _, wq = Lazy.force fixture in
  let run ?obs () =
    Tracked_engine.run_mac_given ~cooldown:200 ?obs ~pad:b.Pipeline.conflict
      ~graph:b.Pipeline.overlay ~cost:Cost.length ~params wq
  in
  let plain = run () in
  let obs = Obs.create () in
  let with_obs = run ~obs () in
  check_stats "tracked base" plain.Tracked_engine.base with_obs.Tracked_engine.base;
  check_stats "tracked vs engine" golden_pad plain.Tracked_engine.base

(* ------------------------------------------------------------------ *)
(* Span self time                                                      *)

let test_span_self_time () =
  let s = Span.create () in
  Span.enter s "outer";
  Span.enter s "inner";
  (* Busy-wait so the inner span has measurable width. *)
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < 1e-4 do
    ()
  done;
  Span.leave s;
  Span.leave s;
  match Span.totals s with
  | [ inner; outer ] ->
      (* A leaf's exclusive time is its inclusive time. *)
      Alcotest.(check bool) "leaf self = seconds" true
        (inner.Span.self_seconds = inner.Span.seconds);
      Alcotest.(check bool) "parent self excludes child" true
        (outer.Span.self_seconds <= outer.Span.seconds -. inner.Span.seconds +. 1e-12);
      Alcotest.(check bool) "self non-negative" true (outer.Span.self_seconds >= 0.)
  | ts -> Alcotest.failf "expected 2 labels, got %d" (List.length ts)

(* ------------------------------------------------------------------ *)
(* Event log                                                           *)

module Event = Obs.Event
module Invariants = Obs.Invariants

let sample_events =
  [
    Event.Inject { step = 0; src = 1; dst = 2; admitted = true };
    Event.Inject { step = 0; src = 3; dst = 3; admitted = false };
    Event.Send
      {
        step = 1;
        edge = 7;
        src = 1;
        dst = 4;
        dest = 2;
        cost = 0.1 +. 0.2 (* not representable: exercises exact round-trip *);
        outcome = Event.Moved;
      };
    Event.Collide { step = 1; edge = 9; src = 4; dst = 5; dest = 2; cost = 1. /. 3. };
    Event.Deliver { step = 2; dst = 2; self = false };
    Event.Epoch_change { step = 3; epoch = 1 };
    Event.Height_advert { step = 3; node = 6 };
    Event.Send
      {
        step = 4;
        edge = 0;
        src = 4;
        dst = 2;
        dest = 2;
        cost = 106.59489637196208;
        outcome = Event.Delivered;
      };
  ]

let test_event_roundtrip () =
  let log = Event.create () in
  List.iter (Event.record log) sample_events;
  Alcotest.(check int) "length" (List.length sample_events) (Event.length log);
  List.iteri
    (fun i ev ->
      if Event.get log i <> ev then Alcotest.failf "event %d decoded differently" i)
    sample_events;
  Alcotest.check_raises "out of bounds" (Invalid_argument "Event.get: index out of bounds")
    (fun () -> ignore (Event.get log 8))

let test_event_growth () =
  let log = Event.create ~initial_capacity:2 () in
  for i = 0 to 999 do
    Event.send log ~step:i ~edge:i ~src:0 ~dst:1 ~dest:2 ~cost:(float_of_int i /. 7.)
      ~outcome:(if i mod 2 = 0 then Event.Moved else Event.Delivered)
  done;
  Alcotest.(check int) "grows past capacity" 1000 (Event.length log);
  match Event.get log 999 with
  | Event.Send { step = 999; edge = 999; cost; outcome = Event.Delivered; _ } ->
      Alcotest.(check bool) "cost survives growth" true
        (Int64.equal (Int64.bits_of_float cost) (Int64.bits_of_float (999. /. 7.)))
  | _ -> Alcotest.fail "last event mangled"

let test_event_observer () =
  let log = Event.create () in
  let seen = ref [] in
  Event.set_observer log (fun i e -> seen := (i, e) :: !seen);
  List.iter (Event.record log) sample_events;
  Alcotest.(check int) "observer saw every record" (List.length sample_events)
    (List.length !seen);
  List.iteri
    (fun i ev ->
      let j, got = List.nth (List.rev !seen) i in
      Alcotest.(check int) "index" i j;
      if got <> ev then Alcotest.failf "observer got a different event at %d" i)
    sample_events;
  Event.clear_observer log;
  Event.deliver log ~step:9 ~dst:0 ~self:true;
  Alcotest.(check int) "cleared observer fires no more" (List.length sample_events)
    (List.length !seen)

let with_temp_file suffix f =
  let file = Filename.temp_file "events" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let test_event_jsonl_roundtrip () =
  let log = Event.create () in
  List.iter (Event.record log) sample_events;
  with_temp_file ".jsonl" (fun file ->
      Event.save_jsonl log file;
      let ic = open_in file in
      let header = input_line ic in
      close_in ic;
      Alcotest.(check string) "schema header" "{\"schema\":\"adhoc-events/1\"}" header;
      match Event.load_jsonl file with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok events ->
          Alcotest.(check int) "count" (List.length sample_events) (Array.length events);
          List.iteri
            (fun i ev ->
              (* Costs must survive the text round-trip bit-for-bit; the
                 variant comparison covers them since floats are compared
                 structurally and none is nan. *)
              if events.(i) <> ev then Alcotest.failf "event %d changed in flight" i)
            sample_events)

let test_event_jsonl_rejects () =
  let write file lines =
    let oc = open_out file in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  in
  with_temp_file ".jsonl" (fun file ->
      write file [ "{\"schema\":\"adhoc-events/2\"}" ];
      (match Event.load_jsonl file with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "wrong schema accepted");
      write file
        [ "{\"schema\":\"adhoc-events/1\"}"; "{\"type\":\"send\",\"step\":0}" ];
      (match Event.load_jsonl file with
      | Error msg ->
          Alcotest.(check bool) "error names the line" true (contains msg ":2")
      | Ok _ -> Alcotest.fail "truncated send accepted");
      write file [ "{\"schema\":\"adhoc-events/1\"}"; "not json" ];
      match Event.load_jsonl file with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage line accepted")

(* ------------------------------------------------------------------ *)
(* Invariants: seeded corrupt logs must be caught                      *)

let clean_events =
  [
    Event.Inject { step = 0; src = 0; dst = 2; admitted = true };
    Event.Send
      { step = 1; edge = 0; src = 0; dst = 1; dest = 2; cost = 1.; outcome = Event.Moved };
    Event.Send
      {
        step = 2;
        edge = 1;
        src = 1;
        dst = 2;
        dest = 2;
        cost = 0.5;
        outcome = Event.Delivered;
      };
    Event.Deliver { step = 2; dst = 2; self = false };
  ]

let violations_of events = Invariants.run (Array.of_list events)

let expect_violation name events fragment =
  match violations_of events with
  | [] -> Alcotest.failf "%s: corrupt log passed" name
  | v :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: reason mentions %S (got %S)" name fragment
           v.Invariants.reason)
        true
        (contains v.Invariants.reason fragment)

let test_invariants_clean () =
  Alcotest.(check int) "clean log has no violations" 0
    (List.length (violations_of clean_events))

let test_invariants_monotone () =
  expect_violation "step regression"
    (clean_events
    @ [ Event.Inject { step = 0; src = 0; dst = 1; admitted = true } ])
    "non-monotone"

let test_invariants_empty_buffer () =
  expect_violation "send with nothing buffered"
    [
      Event.Send
        { step = 0; edge = 0; src = 0; dst = 1; dest = 2; cost = 1.; outcome = Event.Moved };
    ]
    "buffer is empty"

let test_invariants_delivered_wrong_node () =
  expect_violation "delivered away from the destination"
    [
      Event.Inject { step = 0; src = 0; dst = 2; admitted = true };
      Event.Send
        {
          step = 1;
          edge = 0;
          src = 0;
          dst = 1;
          dest = 2;
          cost = 1.;
          outcome = Event.Delivered;
        };
    ]
    "not the destination"

let test_invariants_moved_at_destination () =
  expect_violation "moved into the destination without delivering"
    [
      Event.Inject { step = 0; src = 0; dst = 1; admitted = true };
      Event.Send
        { step = 1; edge = 0; src = 0; dst = 1; dest = 1; cost = 1.; outcome = Event.Moved };
    ]
    "should deliver"

let test_invariants_spurious_deliver () =
  expect_violation "Deliver from nowhere"
    [ Event.Deliver { step = 0; dst = 1; self = false } ]
    "no delivering send"

let test_invariants_missing_deliver () =
  (* Two delivering events with no Deliver between them: the second opens
     while the first is still owed. *)
  expect_violation "missing Deliver"
    [
      Event.Inject { step = 0; src = 1; dst = 1; admitted = true };
      Event.Inject { step = 0; src = 2; dst = 2; admitted = true };
    ]
    "still lacks"

let test_invariants_endpoints () =
  let c = Invariants.create ~endpoints:(fun _ -> (5, 6)) () in
  List.iteri (fun i e -> Invariants.check c i e) clean_events;
  Alcotest.(check bool) "mismatched endpoints flagged" false (Invariants.ok c)

let test_invariants_edge_active () =
  let c = Invariants.create ~is_active:(fun ~step:_ ~edge -> edge <> 1) () in
  List.iteri (fun i e -> Invariants.check c i e) clean_events;
  (match Invariants.violations c with
  | [ v ] ->
      Alcotest.(check bool) "names the inactive edge" true
        (contains v.Invariants.reason "edge 1")
  | vs -> Alcotest.failf "expected exactly 1 violation, got %d" (List.length vs));
  let ok = Invariants.create ~is_active:(fun ~step:_ ~edge:_ -> true) () in
  List.iteri (fun i e -> Invariants.check ok i e) clean_events;
  Alcotest.(check bool) "always-active passes" true (Invariants.ok ok)

let test_invariants_final_check () =
  let feed () =
    let c = Invariants.create () in
    List.iteri (fun i e -> Invariants.check c i e) clean_events;
    c
  in
  let c = feed () in
  Invariants.final_check c ~injected:1 ~dropped:0 ~delivered:1 ~sends:2 ~failed_sends:0
    ~total_cost:1.5 ~remaining:0;
  Alcotest.(check bool) "faithful stats reconcile" true (Invariants.ok c);
  let c = feed () in
  Invariants.final_check c ~injected:1 ~dropped:0 ~delivered:2 ~sends:2 ~failed_sends:0
    ~total_cost:1.5 ~remaining:0;
  Alcotest.(check bool) "delivered mismatch caught" false (Invariants.ok c);
  let c = feed () in
  Invariants.final_check c ~injected:1 ~dropped:0 ~delivered:1 ~sends:2 ~failed_sends:0
    ~total_cost:(1.5 +. 1e-12) ~remaining:0;
  Alcotest.(check bool) "energy compared bit-for-bit" false (Invariants.ok c)

let test_invariants_cap () =
  let log =
    List.init 200 (fun i -> Event.Deliver { step = i; dst = 0; self = false })
  in
  let c = Invariants.create () in
  List.iteri (fun i e -> Invariants.check c i e) log;
  Alcotest.(check int) "every violation counted" 200 (Invariants.violation_count c);
  Alcotest.(check int) "kept list capped" Invariants.max_kept
    (List.length (Invariants.violations c))

(* ------------------------------------------------------------------ *)
(* Engine event emission: golden runs with an event log attached       *)

let count p events = Array.fold_left (fun acc e -> if p e then acc + 1 else acc) 0 events

let is_send = function Event.Send _ -> true | _ -> false
let is_collide = function Event.Collide _ -> true | _ -> false
let is_deliver = function Event.Deliver _ -> true | _ -> false

(* MD5 of a log's adhoc-events/1 bytes: pins every event, in order, down
   to the last bit of each cost. *)
let events_digest log =
  let tmp = Filename.temp_file "adhoc-golden" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Event.save_jsonl log tmp;
      Digest.to_hex (Digest.file tmp))

let checked_run name golden digest run =
  let b, _, _, _ = Lazy.force fixture in
  let log = Event.create () in
  let obs = Obs.create ~events:log () in
  let checker =
    Invariants.create ~endpoints:(Graph.endpoints b.Pipeline.overlay) ()
  in
  Invariants.attach checker log;
  let stats = run ?obs:(Some obs) () in
  check_stats (name ^ "+events") golden stats;
  Invariants.final_check checker ~injected:stats.Engine.injected
    ~dropped:stats.Engine.dropped ~delivered:stats.Engine.delivered
    ~sends:stats.Engine.sends ~failed_sends:stats.Engine.failed_sends
    ~total_cost:stats.Engine.total_cost ~remaining:stats.Engine.remaining;
  if not (Invariants.ok checker) then
    Alcotest.failf "%s: %s" name (Invariants.report checker);
  Alcotest.(check string) (name ^ " event-log digest") digest (events_digest log);
  let events = Event.to_array log in
  Alcotest.(check int)
    (name ^ " one Deliver per delivery")
    stats.Engine.delivered (count is_deliver events);
  Alcotest.(check int)
    (name ^ " one Send per successful attempt")
    (stats.Engine.sends - stats.Engine.failed_sends)
    (count is_send events);
  Alcotest.(check int)
    (name ^ " one Collide per failed attempt")
    stats.Engine.failed_sends (count is_collide events);
  events

let digest_pad = "e414b9d3360d0f6b71c262ac97b1f9ae"
let digest_plain = "378964546061c36cd73f811219a6e86f"
let digest_csma = "57bba15464b868fc7d7ca71ba4a18b2d"

let test_events_golden_pad () = ignore (checked_run "pad" golden_pad digest_pad run_pad)

let test_events_golden_plain () =
  ignore (checked_run "plain" golden_plain digest_plain run_plain)

let test_events_golden_csma () =
  ignore (checked_run "csma" golden_csma digest_csma run_csma)

(* Goldens for the entry points the three above do not reach: the
   time-varying cost path, the epoch engine and the quantized engine.
   Each pins the stats and the event-log bytes. *)

let run_cost_at ?obs () =
  let b, params, w, _ = Lazy.force fixture in
  let g = b.Pipeline.overlay in
  (* Every 50 steps a different third of the edges becomes a hundred
     times dearer, enough to outweigh a height difference. *)
  let cost_at ~step ~edge =
    let c = Cost.length (Graph.length g edge) in
    if ((step / 50) + edge) mod 3 = 0 then 100. *. c else c
  in
  Engine.run_mac_given ~cooldown:200 ?obs ~cost_at ~graph:g ~cost:Cost.length ~params w

let golden_cost_at =
  {
    Engine.steps = 800;
    injected = 399;
    dropped = 0;
    delivered = 346;
    sends = 1036;
    failed_sends = 0;
    total_cost = 4033.1367629292768;
    peak_height = 17;
    remaining = 53;
  }

let digest_cost_at = "fd4962e850f2e2d8e03f064d8f96c11f"

let test_events_golden_cost_at () =
  ignore (checked_run "cost_at" golden_cost_at digest_cost_at run_cost_at)

(* Two epochs over different deployments of the same 80 nodes: the
   fixture's overlay, then a fresh one. *)
let run_dynamic ?obs () =
  let b, params, w, _ = Lazy.force fixture in
  let second =
    Dynamic_engine.epoch_of_points ~steps:300
      (Adhoc_pointset.Generators.uniform (Prng.create 43) 80)
  in
  let epochs =
    [ { Dynamic_engine.graph = b.Pipeline.overlay; conflict = b.Pipeline.conflict; steps = 300 };
      second ]
  in
  let injections t = if t < w.Workload.horizon then w.Workload.injections.(t) else [] in
  Dynamic_engine.run ?obs ~epochs ~injections ~cost:Cost.length ~params ()

let golden_dynamic =
  {
    Engine.steps = 600;
    injected = 394;
    dropped = 5;
    delivered = 15;
    sends = 173;
    failed_sends = 0;
    total_cost = 22.274458200729207;
    peak_height = 100;
    remaining = 379;
  }

let digest_dynamic = "d5304ae8013a01fc0f300d4c97473e94"

let test_events_golden_dynamic () =
  (* The second epoch's edges differ from the first's, so the endpoint
     check of [checked_run] does not apply; pin stats and bytes here. *)
  let log = Event.create () in
  let stats = run_dynamic ~obs:(Obs.create ~events:log ()) () in
  check_stats "dynamic+events" golden_dynamic stats;
  check_stats "dynamic without a sink" golden_dynamic (run_dynamic ());
  Alcotest.(check int) "one Epoch_change per epoch" 2
    (count (function Event.Epoch_change _ -> true | _ -> false) (Event.to_array log));
  Alcotest.(check string) "dynamic event-log digest" digest_dynamic (events_digest log)

let run_quantized ?obs () =
  let b, params, _, wq = Lazy.force fixture in
  Quantized_engine.run_mac_given ~cooldown:200 ?obs ~pad:b.Pipeline.conflict ~quantum:2
    ~graph:b.Pipeline.overlay ~cost:Cost.length ~params wq

let golden_quantized =
  {
    Engine.steps = 800;
    injected = 252;
    dropped = 0;
    delivered = 171;
    sends = 914;
    failed_sends = 0;
    total_cost = 134.02562446331541;
    peak_height = 8;
    remaining = 81;
  }

let golden_quantized_control = 41
let digest_quantized = "08d42a3822542e92c7ef7f40435684bb"

let test_events_golden_quantized () =
  let log = Event.create () in
  let s = run_quantized ~obs:(Obs.create ~events:log ()) () in
  check_stats "quantized+events" golden_quantized s.Quantized_engine.base;
  check_stats "quantized without a sink" golden_quantized (run_quantized ()).Quantized_engine.base;
  Alcotest.(check int) "control messages" golden_quantized_control
    s.Quantized_engine.control_messages;
  Alcotest.(check int) "one Height_advert per control message" golden_quantized_control
    (count (function Event.Height_advert _ -> true | _ -> false) (Event.to_array log));
  Alcotest.(check string) "quantized event-log digest" digest_quantized (events_digest log)

let test_events_collisions_checked () =
  (* Mac.all with a collision structure forces interfering grants to
     collide, exercising the Collide emission and its invariants. *)
  let b, params, w, _ = Lazy.force fixture in
  let log = Event.create () in
  let obs = Obs.create ~events:log () in
  let checker = Invariants.create ~endpoints:(Graph.endpoints b.Pipeline.overlay) () in
  Invariants.attach checker log;
  let stats =
    Engine.run_with_mac ~cooldown:200 ~obs ~collisions:b.Pipeline.conflict
      ~graph:b.Pipeline.overlay ~cost:Cost.length ~params ~mac:Adhoc_mac.Mac.all w
  in
  Alcotest.(check bool) "collisions actually happened" true (stats.Engine.failed_sends > 0);
  Invariants.final_check checker ~injected:stats.Engine.injected
    ~dropped:stats.Engine.dropped ~delivered:stats.Engine.delivered
    ~sends:stats.Engine.sends ~failed_sends:stats.Engine.failed_sends
    ~total_cost:stats.Engine.total_cost ~remaining:stats.Engine.remaining;
  if not (Invariants.ok checker) then Alcotest.fail (Invariants.report checker);
  Alcotest.(check int) "collide events" stats.Engine.failed_sends
    (count is_collide (Event.to_array log))

(* ------------------------------------------------------------------ *)
(* Journey: offline replay reproduces the tracked engine exactly       *)

let bits = Int64.bits_of_float

let check_journey_matches name (t : Tracked_engine.stats) (j : Journey.t) =
  let same field a b =
    if not (Int64.equal (bits a) (bits b)) then
      Alcotest.failf "%s %s: tracked %.17g, journey %.17g" name field a b
  in
  same "latency mean" t.Tracked_engine.latency_mean j.Journey.latency_mean;
  same "latency median" t.Tracked_engine.latency_median j.Journey.latency_median;
  same "latency p95" t.Tracked_engine.latency_p95 j.Journey.latency_p95;
  same "hops mean" t.Tracked_engine.hops_mean j.Journey.hops_mean;
  same "energy per delivered" t.Tracked_engine.energy_per_delivered
    j.Journey.energy_per_delivered;
  same "total energy" t.Tracked_engine.base.Engine.total_cost j.Journey.totals.Journey.energy;
  Alcotest.(check int) (name ^ " delivered") t.Tracked_engine.base.Engine.delivered
    j.Journey.totals.Journey.delivered;
  Alcotest.(check int) (name ^ " injected") t.Tracked_engine.base.Engine.injected
    j.Journey.totals.Journey.injected;
  Alcotest.(check int) (name ^ " dropped") t.Tracked_engine.base.Engine.dropped
    j.Journey.totals.Journey.dropped;
  Alcotest.(check int) (name ^ " anomalies") 0 j.Journey.anomalies;
  Alcotest.(check int)
    (name ^ " packet count")
    (List.length t.Tracked_engine.packets)
    (List.length j.Journey.packets)

let tracked_with_events () =
  let b, params, _, wq = Lazy.force fixture in
  let log = Event.create () in
  let obs = Obs.create ~events:log () in
  let t =
    Tracked_engine.run_mac_given ~cooldown:200 ~obs ~pad:b.Pipeline.conflict
      ~graph:b.Pipeline.overlay ~cost:Cost.length ~params wq
  in
  (t, log)

let test_journey_matches_tracked () =
  let t, log = tracked_with_events () in
  check_journey_matches "golden" t (Journey.analyze (Event.to_array log))

let test_journey_survives_jsonl () =
  (* The analytics must be reproducible from the file, not just the
     in-memory log — %.17g costs make the round trip exact. *)
  let t, log = tracked_with_events () in
  with_temp_file ".jsonl" (fun file ->
      Event.save_jsonl log file;
      match Event.load_jsonl file with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok events -> check_journey_matches "jsonl" t (Journey.analyze events))

let test_journey_matches_tracked_random =
  qtest "journey replay = tracked engine on random workloads" ~count:15 seed_gen
    (fun seed ->
      let points = points_of_seed ~min_n:6 ~max_n:25 seed in
      let range = 2. *. Adhoc_topo.Udg.critical_range points in
      let g =
        Adhoc_topo.Theta_alg.overlay
          (Adhoc_topo.Theta_alg.build ~theta:(Float.pi /. 6.) ~range points)
      in
      let config =
        { Workload.horizon = 300; attempts = 200; slack = 10; interference_free = false }
      in
      let w =
        Workload.flows config ~rng:(Prng.create seed) ~graph:g ~cost:Cost.length
          ~num_flows:2
      in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      let log = Event.create () in
      let obs = Obs.create ~events:log () in
      let t =
        Tracked_engine.run_mac_given ~cooldown:150 ~obs ~graph:g ~cost:Cost.length ~params w
      in
      let j = Journey.analyze (Event.to_array log) in
      Int64.equal (bits t.Tracked_engine.latency_mean) (bits j.Journey.latency_mean)
      && Int64.equal (bits t.Tracked_engine.latency_median) (bits j.Journey.latency_median)
      && Int64.equal (bits t.Tracked_engine.latency_p95) (bits j.Journey.latency_p95)
      && Int64.equal (bits t.Tracked_engine.hops_mean) (bits j.Journey.hops_mean)
      && Int64.equal
           (bits t.Tracked_engine.energy_per_delivered)
           (bits j.Journey.energy_per_delivered)
      && Int64.equal (bits t.Tracked_engine.base.Engine.total_cost)
           (bits j.Journey.totals.Journey.energy)
      && j.Journey.anomalies = 0)

let test_journey_flags_corrupt_log () =
  let j =
    Journey.analyze
      [|
        Event.Send
          {
            step = 0;
            edge = 0;
            src = 0;
            dst = 1;
            dest = 2;
            cost = 1.;
            outcome = Event.Moved;
          };
      |]
  in
  Alcotest.(check bool) "uninjected send is an anomaly" true (j.Journey.anomalies > 0)

let test_journey_edge_table () =
  let t, log = tracked_with_events () in
  let j = Journey.analyze (Event.to_array log) in
  let edge_sends =
    Array.fold_left (fun a (e : Journey.edge_use) -> a + e.Journey.sends) 0 j.Journey.edges
  in
  Alcotest.(check int) "per-edge sends partition the total"
    t.Tracked_engine.base.Engine.sends edge_sends;
  Array.iter
    (fun (e : Journey.edge_use) ->
      let u, v = Graph.endpoints (let b, _, _, _ = Lazy.force fixture in b.Pipeline.overlay) e.Journey.edge in
      if not ((u, v) = (e.Journey.u, e.Journey.v) || (v, u) = (e.Journey.u, e.Journey.v))
      then Alcotest.failf "edge %d endpoints wrong" e.Journey.edge;
      if Journey.mean_wait e < 0. then Alcotest.fail "negative head-of-line wait")
    j.Journey.edges;
  match j.Journey.timeline with
  | [||] -> Alcotest.fail "no timeline"
  | tl ->
      let _, final_delivered, _ = tl.(Array.length tl - 1) in
      Alcotest.(check int) "timeline converges to the delivery total"
        t.Tracked_engine.base.Engine.delivered final_delivered

(* ------------------------------------------------------------------ *)
(* Engine variants: obs parity                                         *)

let small_instance seed =
  let points = points_of_seed ~min_n:8 ~max_n:20 seed in
  let range = 2. *. Adhoc_topo.Udg.critical_range points in
  let g =
    Adhoc_topo.Theta_alg.overlay
      (Adhoc_topo.Theta_alg.build ~theta:(Float.pi /. 6.) ~range points)
  in
  let c =
    Adhoc_interference.Conflict.build (Adhoc_interference.Model.make ~delta:0.5) ~points g
  in
  (g, c)

let test_dynamic_obs_parity () =
  let g, c = small_instance 11 in
  let n = Graph.n g in
  let rng = Prng.create 11 in
  let flow = (Prng.int rng n, Prng.int rng n) in
  let injections t = if t < 200 && t mod 3 = 0 then [ flow ] else [] in
  let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
  let epochs =
    [
      { Dynamic_engine.graph = g; conflict = c; steps = 150 };
      { Dynamic_engine.graph = g; conflict = c; steps = 250 };
    ]
  in
  let run ?obs () = Dynamic_engine.run ?obs ~epochs ~injections ~cost:Cost.length ~params () in
  let plain = run () in
  let log = Event.create () in
  let checker = Invariants.create ~endpoints:(Graph.endpoints g) () in
  Invariants.attach checker log;
  let obs = Obs.create ~trace:(Trace.create ()) ~events:log () in
  let with_obs = run ~obs () in
  check_stats "dynamic obs parity" plain with_obs;
  Invariants.final_check checker ~injected:with_obs.Engine.injected
    ~dropped:with_obs.Engine.dropped ~delivered:with_obs.Engine.delivered
    ~sends:with_obs.Engine.sends ~failed_sends:with_obs.Engine.failed_sends
    ~total_cost:with_obs.Engine.total_cost ~remaining:with_obs.Engine.remaining;
  if not (Invariants.ok checker) then Alcotest.fail (Invariants.report checker);
  let events = Event.to_array log in
  Alcotest.(check int) "one Epoch_change per epoch" 2
    (count (function Event.Epoch_change _ -> true | _ -> false) events);
  Alcotest.(check int) "trace samples every step" 400
    (Trace.length (Option.get obs.Obs.trace));
  let labels = List.map (fun t -> t.Span.label) (Span.totals obs.Obs.spans) in
  Alcotest.(check bool) "decide span" true (List.mem "engine/decide" labels);
  match List.assoc_opt "engine.delivered" (Metrics.snapshot obs.Obs.metrics) with
  | Some (Metrics.Counter d) ->
      Alcotest.(check int) "delivered counter" with_obs.Engine.delivered d
  | _ -> Alcotest.fail "engine.delivered counter missing"

let test_quantized_obs_parity () =
  let g, c = small_instance 13 in
  let config =
    { Workload.horizon = 300; attempts = 200; slack = 10; interference_free = true }
  in
  let w =
    Workload.flows ~conflict:c config ~rng:(Prng.create 13) ~graph:g ~cost:Cost.length
      ~num_flows:2
  in
  let params = Balancing.params ~threshold:2. ~gamma:0.1 ~capacity:50 in
  let run ?obs () =
    Quantized_engine.run_mac_given ~cooldown:100 ?obs ~pad:c ~quantum:2 ~graph:g
      ~cost:Cost.length ~params w
  in
  let plain = run () in
  let log = Event.create () in
  let checker = Invariants.create ~endpoints:(Graph.endpoints g) () in
  Invariants.attach checker log;
  let obs = Obs.create ~events:log () in
  let with_obs = run ~obs () in
  check_stats "quantized obs parity" plain.Quantized_engine.base
    with_obs.Quantized_engine.base;
  Alcotest.(check int) "control messages unchanged"
    plain.Quantized_engine.control_messages with_obs.Quantized_engine.control_messages;
  let s = with_obs.Quantized_engine.base in
  Invariants.final_check checker ~injected:s.Engine.injected ~dropped:s.Engine.dropped
    ~delivered:s.Engine.delivered ~sends:s.Engine.sends
    ~failed_sends:s.Engine.failed_sends ~total_cost:s.Engine.total_cost
    ~remaining:s.Engine.remaining;
  if not (Invariants.ok checker) then Alcotest.fail (Invariants.report checker);
  Alcotest.(check int) "one Height_advert per control message"
    with_obs.Quantized_engine.control_messages
    (count (function Event.Height_advert _ -> true | _ -> false) (Event.to_array log));
  (match List.assoc_opt "quantized.control_messages" (Metrics.snapshot obs.Obs.metrics) with
  | Some (Metrics.Counter cm) ->
      Alcotest.(check int) "control counter matches stats"
        with_obs.Quantized_engine.control_messages cm
  | _ -> Alcotest.fail "quantized.control_messages counter missing");
  let labels = List.map (fun t -> t.Span.label) (Span.totals obs.Obs.spans) in
  Alcotest.(check bool) "advertise span" true (List.mem "engine/advertise" labels)

(* ------------------------------------------------------------------ *)
(* Domprof: per-domain timelines, pool integration, chrome export      *)

module Domprof = Obs.Domprof
module Chrome_trace = Obs.Chrome_trace
module Pool = Adhoc_util.Pool

let test_domprof_merge_order () =
  (* Record out of slot order; [entries] must come back slot-major, each
     lane in append (closing) order — the deterministic merge. *)
  let dp = Domprof.create ~slots:4 () in
  Domprof.begin_chunk dp ~label:"k" ~slot:2 ~lo:20 ~hi:30;
  Domprof.end_chunk dp ~slot:2;
  Domprof.begin_chunk dp ~label:"k" ~slot:1 ~lo:10 ~hi:20;
  Domprof.end_chunk dp ~slot:1;
  Domprof.begin_region dp ~label:"k" ~items:30;
  Domprof.end_region dp;
  Alcotest.(check int) "three closed entries" 3 (Domprof.length dp);
  let es = Domprof.entries dp in
  Alcotest.(check (list int)) "slot-major order" [ 0; 1; 2 ]
    (Array.to_list (Array.map (fun e -> e.Domprof.slot) es));
  (match es.(0).Domprof.kind with
  | Domprof.Region -> ()
  | _ -> Alcotest.fail "slot-0 entry should be the region");
  Alcotest.(check int) "region covers the items" 30 es.(0).Domprof.hi;
  Alcotest.(check int) "slot-1 chunk lo" 10 es.(1).Domprof.lo;
  Alcotest.(check int) "slot-2 chunk hi" 30 es.(2).Domprof.hi;
  Domprof.reset dp;
  Alcotest.(check int) "reset drops entries" 0 (Domprof.length dp)

let test_domprof_nesting_order () =
  let dp = Domprof.create () in
  Domprof.begin_scope dp ~label:"outer";
  Domprof.begin_scope dp ~label:"inner";
  Domprof.end_scope dp;
  Domprof.end_scope dp;
  let es = Domprof.entries dp in
  Alcotest.(check (list string))
    "children close before parents" [ "inner"; "outer" ]
    (Array.to_list (Array.map (fun e -> e.Domprof.label) es));
  Array.iter
    (fun e -> Alcotest.(check bool) "t1 >= t0" true (e.Domprof.t1 >= e.Domprof.t0))
    es

let test_domprof_unbalanced () =
  let dp = Domprof.create ~slots:2 () in
  Alcotest.(check bool) "end without begin raises" true
    (try
       Domprof.end_scope dp;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "slot out of range raises" true
    (try
       Domprof.begin_chunk dp ~label:"x" ~slot:5 ~lo:0 ~hi:1;
       false
     with Invalid_argument _ -> true);
  (* An open (unclosed) mark is not merged. *)
  Domprof.begin_scope dp ~label:"open";
  Alcotest.(check int) "open mark not counted" 0 (Domprof.length dp);
  Alcotest.(check int) "open mark not merged" 0 (Array.length (Domprof.entries dp))

let test_domprof_growth () =
  (* Push one lane far past its initial capacity; nothing is dropped and
     append order survives the reallocation. *)
  let dp = Domprof.create ~slots:1 () in
  let n = 300 in
  for i = 0 to n - 1 do
    Domprof.begin_scope dp ~label:(string_of_int i);
    Domprof.end_scope dp
  done;
  Alcotest.(check int) "grows past initial capacity" n (Domprof.length dp);
  let es = Domprof.entries dp in
  Alcotest.(check string) "first kept" "0" es.(0).Domprof.label;
  Alcotest.(check string) "last kept" (string_of_int (n - 1)) es.(n - 1).Domprof.label

let test_span_domprof_scopes () =
  (* A span profiler created with a recorder mirrors every instance as a
     Scope entry on lane 0. *)
  let dp = Domprof.create () in
  let s = Span.create ~domprof:dp () in
  Span.time s "outer" (fun () -> Span.time s "inner" (fun () -> ()));
  let es = Domprof.entries dp in
  Alcotest.(check (list string))
    "one Scope per span instance, closing order" [ "inner"; "outer" ]
    (Array.to_list (Array.map (fun e -> e.Domprof.label) es));
  Array.iter
    (fun e ->
      match e.Domprof.kind with
      | Domprof.Scope -> ()
      | _ -> Alcotest.fail "span instances record as Scope")
    es

let test_domprof_pool_timeline () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let dp = Domprof.create ~slots:(Pool.jobs pool) () in
      let sink = Obs.create ~domprof:dp () in
      Obs.attach_pool sink pool;
      let n = 300 in
      let a = Array.make n 0 in
      Pool.parallel_for pool ~label:"fill" n (fun i -> a.(i) <- i + 1);
      Obs.detach_pool pool;
      Alcotest.(check int) "work actually ran" n
        (Array.fold_left (fun acc v -> if v > 0 then acc + 1 else acc) 0 a);
      let es = Array.to_list (Domprof.entries dp) in
      let regions = List.filter (fun e -> e.Domprof.kind = Domprof.Region) es in
      let chunks = List.filter (fun e -> e.Domprof.kind = Domprof.Chunk) es in
      Alcotest.(check int) "one region" 1 (List.length regions);
      Alcotest.(check int) "one chunk per slot" 3 (List.length chunks);
      (* Chunk boundaries are a function of (n, k) only: [i*n/k, (i+1)*n/k). *)
      let expect = List.init 3 (fun i -> (i, i * n / 3, (i + 1) * n / 3)) in
      let got =
        List.sort compare
          (List.map (fun e -> (e.Domprof.slot, e.Domprof.lo, e.Domprof.hi)) chunks)
      in
      Alcotest.(check bool) "deterministic chunk ranges" true (got = expect);
      match Domprof.summary dp with
      | None -> Alcotest.fail "summary missing after a parallel region"
      | Some s ->
          Alcotest.(check int) "chunks counted" 3 s.Domprof.chunks;
          Alcotest.(check int) "chunk items cover the range" n s.Domprof.chunk_items;
          Alcotest.(check bool) "imbalance >= 1" true (s.Domprof.imbalance >= 1.0);
          Alcotest.(check bool) "busy_max >= busy_min" true
            (s.Domprof.busy_max >= s.Domprof.busy_min))

let test_domprof_jobs1_timeline () =
  (* The sequential fast path still reports its single slot-0 chunk, so a
     --jobs 1 run produces a usable timeline. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let dp = Domprof.create () in
      let sink = Obs.create ~domprof:dp () in
      Obs.attach_pool sink pool;
      Pool.parallel_for pool ~label:"seq" 10 (fun _ -> ());
      Obs.detach_pool pool;
      let es = Array.to_list (Domprof.entries dp) in
      let chunks = List.filter (fun e -> e.Domprof.kind = Domprof.Chunk) es in
      match chunks with
      | [ c ] ->
          Alcotest.(check int) "slot 0" 0 c.Domprof.slot;
          Alcotest.(check int) "lo" 0 c.Domprof.lo;
          Alcotest.(check int) "hi" 10 c.Domprof.hi
      | _ -> Alcotest.fail "expected exactly one chunk on the k=1 path")

(* ------------------------------------------------------------------ *)
(* GC telemetry                                                        *)

let test_span_gc_delta () =
  let s = Span.create ~gc:true () in
  Span.time s "alloc" (fun () ->
      let acc = ref [] in
      for i = 0 to 9_999 do
        acc := (i, float_of_int i) :: !acc
      done;
      ignore (List.length !acc));
  match Span.totals s with
  | [ t ] ->
      Alcotest.(check bool) "minor words counted" true (t.Span.minor_words > 0.);
      Alcotest.(check bool) "promoted words non-negative" true (t.Span.promoted_words >= 0.);
      Alcotest.(check bool) "collection counts non-negative" true
        (t.Span.minor_collections >= 0 && t.Span.major_collections >= 0)
  | _ -> Alcotest.fail "one span expected"

let test_span_gc_disabled_zero () =
  (* Without [~gc:true] the profiler never reads the GC — totals stay zero
     even when the body allocates. *)
  let s = Span.create () in
  Span.time s "alloc" (fun () -> ignore (List.init 1_000 (fun i -> (i, i))));
  match Span.totals s with
  | [ t ] ->
      check_close "minor words zero when gc off" 0. t.Span.minor_words;
      Alcotest.(check int) "collections zero when gc off" 0 t.Span.minor_collections
  | _ -> Alcotest.fail "one span expected"

let test_pool_gc_counters () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let sink = Obs.create () in
      Obs.attach_pool sink pool;
      Pool.parallel_for pool ~label:"alloc" 64 (fun _ -> ignore (Array.make 256 0.));
      Obs.detach_pool pool;
      let snap = Metrics.snapshot sink.Obs.metrics in
      let counter name =
        match List.assoc_opt name snap with
        | Some (Metrics.Counter c) -> c
        | _ -> Alcotest.failf "%s counter missing" name
      in
      Alcotest.(check int) "one region" 1 (counter "pool.regions");
      Alcotest.(check int) "items" 64 (counter "pool.items");
      (* The owner's Gc.quick_stat delta over the region: allocation split
         across domains, so only non-negativity is portable. *)
      Alcotest.(check bool) "gc.pool counters registered" true
        (counter "gc.pool.minor_words" >= 0
        && counter "gc.pool.promoted_words" >= 0
        && counter "gc.pool.minor_collections" >= 0
        && counter "gc.pool.major_collections" >= 0);
      match List.assoc_opt "pool.chunk_items" snap with
      | Some (Metrics.Histogram { total; sum; _ }) ->
          Alcotest.(check int) "one observation per chunk" 2 total;
          check_close "chunk sizes sum to the item count" 64. sum
      | _ -> Alcotest.fail "pool.chunk_items histogram missing")

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)

let count_occurrences ~needle s =
  let nl = String.length needle and sl = String.length s in
  let rec go i acc =
    if i + nl > sl then acc
    else if String.equal (String.sub s i nl) needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_chrome_trace_shape () =
  let dp = Domprof.create ~slots:2 () in
  Domprof.begin_region dp ~label:"r" ~items:10;
  Domprof.begin_chunk dp ~label:"r" ~slot:1 ~lo:5 ~hi:10;
  Domprof.end_chunk dp ~slot:1;
  Domprof.end_region dp;
  Domprof.begin_scope dp ~label:"quoted \"label\"";
  Domprof.end_scope dp;
  let s = Chrome_trace.to_string ~process_name:"test" dp in
  Alcotest.(check bool) "catapult envelope" true (contains s "{\"traceEvents\": [");
  Alcotest.(check bool) "display unit" true (contains s "\"displayTimeUnit\": \"ms\"");
  Alcotest.(check bool) "process metadata" true (contains s "\"process_name\"");
  Alcotest.(check bool) "caller thread named" true (contains s "slot 0 (caller)");
  Alcotest.(check bool) "worker thread named" true (contains s "slot 1 (worker 0)");
  Alcotest.(check bool) "labels are JSON-escaped" true (contains s "quoted \\\"label\\\"");
  Alcotest.(check int) "one complete event per entry" (Domprof.length dp)
    (count_occurrences ~needle:"\"ph\": \"X\"" s);
  Alcotest.(check bool) "chunk range in args" true
    (contains s "\"args\": {\"lo\": 5, \"hi\": 10, \"items\": 5}")

(* ------------------------------------------------------------------ *)
(* Profiling bit-identity: recording must not change any computed bit  *)

let test_golden_profiled () =
  (* The strongest sink we can build — metrics, spans with GC deltas, a
     timeline recorder — and the seed goldens must not move. *)
  let dp = Domprof.create () in
  let obs = Obs.create ~domprof:dp ~gc:true () in
  check_stats "pad+profiled" golden_pad (run_pad ~obs ());
  Alcotest.(check bool) "timeline recorded" true (Domprof.length dp > 0);
  let obs = Obs.create ~domprof:(Domprof.create ()) ~gc:true () in
  check_stats "csma+profiled" golden_csma (run_csma ~obs ())

let edge_list g = List.init (Graph.num_edges g) (Graph.endpoints g)

let test_profiled_pool_bit_identity =
  qtest "profiling on/off never changes pool-built outputs" ~count:10 seed_gen
    (fun seed ->
      let points = points_of_seed ~min_n:10 ~max_n:40 seed in
      let range = 2. *. Adhoc_topo.Udg.critical_range points in
      let build ?pool () =
        edge_list
          (Adhoc_topo.Theta_alg.overlay
             (Adhoc_topo.Theta_alg.build ?pool ~theta:(Float.pi /. 6.) ~range points))
      in
      let reference = build () in
      List.for_all
        (fun jobs ->
          Pool.with_pool ~jobs (fun pool ->
              let dp = Domprof.create ~slots:(Pool.jobs pool) () in
              let sink = Obs.create ~domprof:dp ~gc:true () in
              Obs.attach_pool sink pool;
              let profiled = build ~pool () in
              Obs.detach_pool pool;
              let plain = build ~pool () in
              profiled = reference && plain = reference))
        [ 1; 2; 4 ])

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          case "counter" test_metrics_counter;
          case "gauge" test_metrics_gauge;
          case "histogram boundaries" test_metrics_histogram_boundaries;
          case "kind clash" test_metrics_kind_clash;
          case "bad buckets" test_metrics_bad_buckets;
          case "snapshot sorted" test_metrics_snapshot_sorted;
        ] );
      ( "span",
        [
          case "nesting" test_span_nesting;
          case "unbalanced leave" test_span_unbalanced_leave;
          case "time is exception-safe" test_span_time_exception_safe;
          case "reset" test_span_reset;
          case "self (exclusive) time" test_span_self_time;
        ] );
      ( "event log",
        [
          case "record/get roundtrip" test_event_roundtrip;
          case "growth" test_event_growth;
          case "observer" test_event_observer;
          case "jsonl roundtrip is exact" test_event_jsonl_roundtrip;
          case "jsonl rejects bad input" test_event_jsonl_rejects;
        ] );
      ( "invariants",
        [
          case "clean log passes" test_invariants_clean;
          case "non-monotone steps" test_invariants_monotone;
          case "send from empty buffer" test_invariants_empty_buffer;
          case "delivered away from destination" test_invariants_delivered_wrong_node;
          case "moved at destination" test_invariants_moved_at_destination;
          case "spurious Deliver" test_invariants_spurious_deliver;
          case "missing Deliver" test_invariants_missing_deliver;
          case "endpoints mismatch" test_invariants_endpoints;
          case "inactive edge" test_invariants_edge_active;
          case "final stats reconciliation" test_invariants_final_check;
          case "violation cap" test_invariants_cap;
        ] );
      ( "engine events",
        [
          case "pad golden with events + checker" test_events_golden_pad;
          case "plain golden with events + checker" test_events_golden_plain;
          case "csma golden with events + checker" test_events_golden_csma;
          case "cost_at golden with events + checker" test_events_golden_cost_at;
          case "dynamic golden with events" test_events_golden_dynamic;
          case "quantized golden with events" test_events_golden_quantized;
          case "collisions are checked" test_events_collisions_checked;
        ] );
      ( "journey",
        [
          case "replay matches tracked engine" test_journey_matches_tracked;
          case "replay survives the jsonl roundtrip" test_journey_survives_jsonl;
          test_journey_matches_tracked_random;
          case "corrupt log flagged" test_journey_flags_corrupt_log;
          case "edge table and timeline" test_journey_edge_table;
        ] );
      ( "engine variants",
        [
          case "dynamic engine obs parity" test_dynamic_obs_parity;
          case "quantized engine obs parity" test_quantized_obs_parity;
        ] );
      ( "trace",
        [
          case "stride" test_trace_stride;
          case "growth" test_trace_growth;
          case "jsonl lines" test_trace_jsonl_lines;
          case "csv shape" test_trace_csv_shape;
        ] );
      ( "engine golden",
        [
          case "obs disabled pins seed stats" test_golden_disabled;
          case "obs enabled is bit-identical" test_golden_enabled;
          case "csma with obs + stride" test_golden_enabled_csma;
          case "trace deltas sum to stats" test_trace_deltas_sum;
          case "tracked engine unchanged" test_tracked_engine_obs_identical;
        ] );
      ( "domprof",
        [
          case "deterministic slot-major merge" test_domprof_merge_order;
          case "children close before parents" test_domprof_nesting_order;
          case "unbalanced marks rejected" test_domprof_unbalanced;
          case "lane growth past initial capacity" test_domprof_growth;
          case "span instances mirror as scopes" test_span_domprof_scopes;
          case "pool region timeline" test_domprof_pool_timeline;
          case "jobs=1 fast path still records" test_domprof_jobs1_timeline;
        ] );
      ( "gc telemetry",
        [
          case "span gc deltas" test_span_gc_delta;
          case "gc off means zero" test_span_gc_disabled_zero;
          case "pool gc counters + chunk histogram" test_pool_gc_counters;
        ] );
      ( "chrome trace",
        [ case "trace-event document shape" test_chrome_trace_shape ] );
      ( "profiling bit-identity",
        [
          case "engine goldens under full profiling" test_golden_profiled;
          test_profiled_pool_bit_identity;
        ] );
    ]
