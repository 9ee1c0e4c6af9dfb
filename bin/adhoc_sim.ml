(* adhoc_sim — command-line driver for the library.

   Subcommands:
     topology      build G*, the Yao graph and the ΘALG overlay; print metrics
     stretch       energy/distance stretch of the overlay vs. G*
     interference  interference number and colouring of a topology
     route         run a balancing-routing scenario end to end
     analyze       offline per-packet analytics from a recorded event log
*)

open Adhoc
open Cmdliner
module Prng = Util.Prng
module Graph = Graphs.Graph
module Table = Util.Table

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)

(* Range-checked numeric converters: a value outside a flag's range is a
   usage error (exit 124) that names the accepted range, never an
   exception from inside the library. *)
let checked conv ok range =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%s is out of range, expected %s" s range))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let int_from lo = checked Arg.int (fun v -> v >= lo) (Printf.sprintf "an integer >= %d" lo)

let float_where ok range = checked Arg.float (fun v -> Float.is_finite v && ok v) range

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (deterministic runs).")

(* [route] and [geo] pick distinct node pairs, so they need two nodes. *)
let nodes_t ~min =
  Arg.(
    value
    & opt (int_from min) 200
    & info [ "n"; "nodes" ] ~docv:"N" ~doc:(Printf.sprintf "Number of nodes (at least %d)." min))

let theta_t =
  Arg.(
    value
    & opt
        (float_where (fun t -> t > 0. && t <= 2. *. Float.pi) "an angle in (0, 2π]")
        (Float.pi /. 6.)
    & info [ "theta" ] ~docv:"RAD" ~doc:"Sector angle of ΘALG (radians, ≤ π/3 for the paper's guarantees).")

let range_factor_t =
  Arg.(
    value
    & opt (float_where (fun f -> f >= 0.) "a finite number >= 0") 1.5
    & info [ "range-factor" ] ~docv:"F"
        ~doc:"Transmission range as a multiple of the connectivity threshold.")

let delta_t =
  Arg.(
    value
    & opt (float_where (fun d -> d >= 0.) "a finite number >= 0") 0.5
    & info [ "delta" ] ~docv:"D" ~doc:"Interference guard-zone parameter Δ.")

let dist_t =
  let dist_conv =
    Arg.enum
      [ ("uniform", `Uniform); ("grid", `Grid); ("clusters", `Clusters); ("ring", `Ring) ]
  in
  Arg.(
    value & opt dist_conv `Uniform
    & info [ "dist" ] ~docv:"DIST" ~doc:"Node distribution: uniform, grid, clusters or ring.")

let jobs_t =
  Arg.(
    value
    & opt (int_from 1) (Util.Pool.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Domain-pool size for the parallelized kernels, including the \
           routing engines' per-step decision phase (default: the \
           machine's recommended domain count).  Every result is \
           bit-identical for every N; only wall-clock changes.")

(* Each subcommand body runs inside [with_jobs]: the pool is created from
   --jobs, threaded through the construction kernels and the engines'
   step loops, and torn down on exit. *)
let with_jobs jobs f = Util.Pool.with_pool ~jobs f

let make_points dist rng n =
  match dist with
  | `Uniform -> Pointset.Generators.uniform rng n
  | `Grid -> Pointset.Generators.jittered_grid ~jitter:0.3 rng n
  | `Clusters -> Pointset.Generators.clusters ~num_clusters:5 ~spread:0.05 rng n
  | `Ring -> Pointset.Generators.ring ~width:0.25 rng n

let build ?obs ?pool seed n theta range_factor delta dist =
  let rng = Prng.create seed in
  let points = make_points dist rng n in
  let range = range_factor *. Topo.Udg.critical_range points in
  (rng, points, range, Pipeline.prepare ~delta ~theta ?obs ?pool ~range points)

(* ------------------------------------------------------------------ *)
(* Live-telemetry summary, shared by [route --live] (online) and
   [analyze --replay-live] (offline): both print the same cumulative
   record, and both print it through the same table shape as the
   analyzer's per-packet distributions.                                *)

let print_live_summary l =
  let open Obs.Live in
  let c = finish l in
  Printf.printf "live: %d window%s of %d steps, %d events over %d steps\n" c.windows
    (if c.windows = 1 then "" else "s")
    (window_size l) c.events c.steps;
  Printf.printf "  injected / dropped  %d / %d\n" c.c_injected c.c_dropped;
  Printf.printf "  delivered           %d (self %d)\n" c.c_delivered c.c_self_deliveries;
  Printf.printf "  sends / collisions  %d / %d\n" c.c_sends c.c_collisions;
  Printf.printf "  control / buffered  %d / %d\n" c.c_control c.c_buffered;
  Printf.printf "  energy              %.6g\n" c.energy;
  Printf.printf "  health              %s (%d violations, %d anomalies)\n"
    (if c.healthy then "ok" else "UNHEALTHY")
    c.c_violations c.anomalies;
  if c.events > 0 then begin
    let tb = Table.summary_table "sketch estimate" in
    Table.add_float_row tb "latency (steps)"
      [ c.latency_mean; c.c_latency_p50; c.c_latency_p95 ];
    Table.add_float_row tb "hops" [ c.hops_mean; c.c_hops_p50; c.c_hops_p95 ];
    Table.add_float_row tb "occupancy" [ c.occupancy_mean; c.c_occupancy_p50; c.c_occupancy_p95 ];
    Table.print tb
  end;
  let hitters what tops =
    if tops <> [] then
      Printf.printf "  top %s %s\n" what
        (String.concat "  "
           (List.map (fun (k, n, err) -> Printf.sprintf "%d:%d(±%d)" k n err) tops))
  in
  hitters "edges " c.c_top_edges;
  hitters "nodes " c.top_nodes

(* ------------------------------------------------------------------ *)
(* topology                                                            *)

let topology_cmd =
  let run jobs seed n theta range_factor delta dist =
    with_jobs jobs @@ fun pool ->
    let _, points, range, b = build ~pool seed n theta range_factor delta dist in
    Printf.printf "n=%d range=%.4f theta=%.4f\n\n" n range theta;
    let gstar = b.Pipeline.gstar in
    let t = Table.create Topo.Topo_metrics.header in
    List.iter
      (fun (name, g) ->
        Table.add_row t (Topo.Topo_metrics.to_row (Topo.Topo_metrics.measure ~name ~base:gstar g)))
      [
        ("G*", gstar);
        ("yao", Topo.Yao.graph ~pool ~theta ~range points);
        ("theta-overlay", b.Pipeline.overlay);
        ("gabriel", Topo.Gabriel.build ~pool ~range points);
        ("rng", Topo.Rng_graph.build ~pool ~range points);
        ("delaunay", Topo.Delaunay.build ~range points);
        ("mst", Graphs.Mst.of_points points);
      ];
    Table.print t
  in
  Cmd.v
    (Cmd.info "topology" ~doc:"Build topologies on a random deployment and print their metrics.")
    Term.(const run $ jobs_t $ seed_t $ (nodes_t ~min:1) $ theta_t $ range_factor_t $ delta_t $ dist_t)

(* ------------------------------------------------------------------ *)
(* stretch                                                             *)

let stretch_cmd =
  let kappa_t =
    Arg.(
      value
      & opt (float_where (fun k -> k >= 0.) "a finite number >= 0") 2.
      & info [ "kappa" ] ~docv:"K" ~doc:"Path-loss exponent κ (the paper's bounds need κ ≥ 2).")
  in
  let run jobs seed n theta range_factor delta dist kappa =
    with_jobs jobs @@ fun pool ->
    let _, _, _, b = build ~pool seed n theta range_factor delta dist in
    let es =
      Graphs.Stretch.over_base_edges ~pool ~sub:b.Pipeline.overlay ~base:b.Pipeline.gstar
        ~cost:(Graphs.Cost.energy ~kappa) ()
    in
    let ds =
      Graphs.Stretch.over_base_edges ~pool ~sub:b.Pipeline.overlay ~base:b.Pipeline.gstar
        ~cost:Graphs.Cost.length ()
    in
    Printf.printf "energy-stretch (kappa=%.1f) = %.4f\ndistance-stretch = %.4f\n" kappa es ds
  in
  Cmd.v
    (Cmd.info "stretch" ~doc:"Energy/distance stretch of the ΘALG overlay vs. the transmission graph.")
    Term.(
      const run $ jobs_t $ seed_t $ (nodes_t ~min:1) $ theta_t $ range_factor_t $ delta_t $ dist_t $ kappa_t)

(* ------------------------------------------------------------------ *)
(* interference                                                        *)

let interference_cmd =
  let run jobs seed n theta range_factor delta dist =
    with_jobs jobs @@ fun pool ->
    let _, _, _, b = build ~pool seed n theta range_factor delta dist in
    let sizes = Interference.Conflict.set_sizes b.Pipeline.conflict in
    let _, colors = Interference.Conflict.greedy_coloring b.Pipeline.conflict in
    let mean =
      if Array.length sizes = 0 then 0.
      else
        float_of_int (Array.fold_left ( + ) 0 sizes) /. float_of_int (Array.length sizes)
    in
    Printf.printf "overlay edges = %d\ninterference number I = %d\nmean |I(e)| = %.2f\ngreedy colors = %d\n"
      (Graph.num_edges b.Pipeline.overlay)
      b.Pipeline.interference_number mean colors
  in
  Cmd.v
    (Cmd.info "interference" ~doc:"Interference structure of the ΘALG overlay.")
    Term.(const run $ jobs_t $ seed_t $ (nodes_t ~min:1) $ theta_t $ range_factor_t $ delta_t $ dist_t)

(* ------------------------------------------------------------------ *)
(* route                                                               *)

let route_cmd =
  let scenario_t =
    let scen_conv = Arg.enum [ ("mac-given", `S1); ("random-mac", `S2); ("honeycomb", `S3) ] in
    Arg.(
      value & opt scen_conv `S1
      & info [ "scenario" ] ~docv:"S"
          ~doc:"mac-given (Thm 3.1), random-mac (Thm 3.3) or honeycomb (Thm 3.8).")
  in
  let horizon_t =
    Arg.(value & opt (int_from 1) 4000 & info [ "horizon" ] ~docv:"T" ~doc:"Injection horizon (steps).")
  in
  let flows_t =
    Arg.(value & opt (int_from 1) 2 & info [ "flows" ] ~docv:"F" ~doc:"Number of sustained flows.")
  in
  let epsilon_t =
    Arg.(
      value
      & opt (float_where (fun e -> e > 0. && e < 1.) "a number in (0, 1)") 0.5
      & info [ "epsilon" ] ~docv:"E" ~doc:"Throughput slack ε ∈ (0,1).")
  in
  let trace_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a per-step trace and write it to $(docv) after the run — JSONL by \
             default, CSV when $(docv) ends in .csv.")
  in
  let trace_stride_t =
    Arg.(
      value
      & opt (int_from 1) 1
      & info [ "trace-stride" ] ~docv:"S"
          ~doc:"Record every $(docv)-th step of the trace (default 1: every step).")
  in
  let metrics_t =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print the observability layer's span timings (with per-span GC deltas) and \
             metric snapshot after the run.")
  in
  let chrome_trace_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-trace" ] ~docv:"FILE"
          ~doc:
            "Record a per-domain profiling timeline (pool regions, chunks and spans) and \
             write it to $(docv) as Chrome trace-event JSON after the run — load it in \
             chrome://tracing or ui.perfetto.dev.")
  in
  let print_observability (o : Obs.sink) =
    let spans = Obs.Span.totals o.Obs.spans in
    if spans <> [] then begin
      let t =
        Table.create
          [
            ("span", Table.Left);
            ("calls", Table.Right);
            ("seconds", Table.Right);
            ("self", Table.Right);
            ("minor w", Table.Right);
            ("promoted w", Table.Right);
            ("gc m/M", Table.Right);
          ]
      in
      List.iter
        (fun (s : Obs.Span.total) ->
          Table.add_row t
            [
              s.Obs.Span.label;
              string_of_int s.Obs.Span.count;
              Printf.sprintf "%.6f" s.Obs.Span.seconds;
              Printf.sprintf "%.6f" s.Obs.Span.self_seconds;
              Printf.sprintf "%.0f" s.Obs.Span.minor_words;
              Printf.sprintf "%.0f" s.Obs.Span.promoted_words;
              Printf.sprintf "%d/%d" s.Obs.Span.minor_collections s.Obs.Span.major_collections;
            ])
        spans;
      print_newline ();
      Table.print t
    end;
    let t = Table.create [ ("metric", Table.Left); ("value", Table.Right) ] in
    List.iter
      (fun (name, v) ->
        match v with
        | Obs.Metrics.Counter c -> Table.add_row t [ name; string_of_int c ]
        | Obs.Metrics.Gauge g -> Table.add_row t [ name; Printf.sprintf "%g" g ]
        | Obs.Metrics.Histogram { counts; total; _ } ->
            Table.add_row t
              [
                name;
                Printf.sprintf "n=%d overflow=%d" total counts.(Array.length counts - 1);
              ])
      (Obs.Metrics.snapshot o.Obs.metrics);
    print_newline ();
    Table.print t
  in
  let events_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Record the packet-journey event log and write it to $(docv) as \
             adhoc-events/1 JSONL after the run (see the analyze subcommand).")
  in
  let check_invariants_t =
    Arg.(
      value & flag
      & info [ "check-invariants" ]
          ~doc:
            "Check the event stream online against the packet-conservation invariants and \
             reconcile it with the final stats; exit non-zero on any violation.")
  in
  let live_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "live" ] ~docv:"FILE"
          ~doc:
            "Fold the event stream online into live telemetry — step-keyed tumbling \
             windows of counters, quantile sketches and heavy hitters — and write the \
             snapshot stream to $(docv) as adhoc-live/1 JSONL after the run.  The stream \
             is byte-identical across --jobs and to analyze --replay-live over the same \
             recorded events.")
  in
  let live_window_t =
    Arg.(
      value
      & opt (int_from 1) 250
      & info [ "live-window" ] ~docv:"STEPS"
          ~doc:"Tumbling-window size in simulation steps for --live (default 250).")
  in
  let live_prom_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "live-prom" ] ~docv:"FILE"
          ~doc:
            "Also write the final cumulative live-telemetry state to $(docv) in \
             Prometheus text exposition format (turns the live recorder on even without \
             --live).")
  in
  let run jobs seed n theta range_factor delta dist scenario horizon flows epsilon trace_file
      trace_stride metrics events_file check_invariants chrome_file live_file live_window
      live_prom =
    with_jobs jobs @@ fun pool ->
    let trace = Option.map (fun _ -> Obs.Trace.create ~stride:trace_stride ()) trace_file in
    let live =
      if live_file <> None || live_prom <> None then
        Some (Obs.Live.create ~window:live_window ())
      else None
    in
    let events =
      if events_file <> None || check_invariants || live <> None then
        Some (Obs.Event.create ())
      else None
    in
    let domprof = Option.map (fun _ -> Obs.Domprof.create ()) chrome_file in
    let obs =
      if trace <> None || metrics || events <> None || domprof <> None then
        (* GC telemetry rides with --metrics: that is the only reporter of
           the per-span deltas, and the default path stays read-free. *)
        Some (Obs.create ?trace ?events ?domprof ?live ~gc:metrics ())
      else None
    in
    Option.iter (fun o -> Obs.attach_pool o pool) obs;
    let rng, _, range, b = build ?obs ~pool seed n theta range_factor delta dist in
    let checker =
      if check_invariants then begin
        let c = Obs.Invariants.create ~endpoints:(Graph.endpoints b.Pipeline.overlay) () in
        Option.iter (Obs.Invariants.attach c) events;
        Some c
      end
      else None
    in
    (* [~pool] reaches the engines' step loops: per-step decisions fan out
       on the domain pool, bit-identical to sequential for any --jobs. *)
    let r =
      match scenario with
      | `S1 ->
          Pipeline.run_scenario1 ~epsilon ~horizon ~attempts:(2 * horizon) ~flows ?obs ~pool
            ~rng b
      | `S2 ->
          Pipeline.run_scenario2 ~epsilon ~horizon ~attempts:(2 * horizon) ~flows ?obs ~pool
            ~rng b
      | `S3 ->
          Pipeline.run_honeycomb ~epsilon ~horizon ~attempts:(2 * horizon) ~flows ?obs ~pool
            ~rng b
    in
    Printf.printf "range=%.4f  I=%d\n" range b.Pipeline.interference_number;
    Printf.printf "OPT deliveries      %d\n" r.Pipeline.opt.Routing.Workload.deliveries;
    Printf.printf "balancing delivered %d\n" r.Pipeline.stats.Routing.Engine.delivered;
    Printf.printf "throughput ratio    %.4f\n" r.Pipeline.throughput_ratio;
    Printf.printf "avg-cost ratio      %s\n"
      (if Float.is_nan r.Pipeline.cost_ratio then "n/a"
       else Printf.sprintf "%.4f" r.Pipeline.cost_ratio);
    Printf.printf "sends / failed      %d / %d\n" r.Pipeline.stats.Routing.Engine.sends
      r.Pipeline.stats.Routing.Engine.failed_sends;
    Printf.printf "dropped / remaining %d / %d\n" r.Pipeline.stats.Routing.Engine.dropped
      r.Pipeline.stats.Routing.Engine.remaining;
    (match (obs, trace_file) with
    | Some { Obs.trace = Some tr; _ }, Some file ->
        if Filename.check_suffix file ".csv" then Obs.Trace.save_csv tr file
        else Obs.Trace.save_jsonl tr file;
        Printf.printf "wrote %s (%d samples, stride %d)\n" file (Obs.Trace.length tr)
          (Obs.Trace.stride tr)
    | _ -> ());
    (match (events, events_file) with
    | Some log, Some file ->
        Obs.Event.save_jsonl log file;
        Printf.printf "wrote %s (%d events)\n" file (Obs.Event.length log)
    | _ -> ());
    (match live with
    | Some l ->
        let c = Obs.Live.finish l in
        (match live_file with
        | Some file ->
            Obs.Live.save_jsonl l file;
            Printf.printf "wrote %s (%d windows + final)\n" file c.Obs.Live.windows
        | None -> ());
        (match live_prom with
        | Some file ->
            Obs.Live.save_prometheus l file;
            Printf.printf "wrote %s\n" file
        | None -> ());
        print_newline ();
        print_live_summary l
    | None -> ());
    (match (domprof, chrome_file) with
    | Some dp, Some file ->
        Obs.Chrome_trace.save ~process_name:"adhoc_sim route" dp file;
        Printf.printf "wrote %s (%d slices)\n" file (Obs.Domprof.length dp)
    | _ -> ());
    (match obs with Some o when metrics -> print_observability o | _ -> ());
    match checker with
    | None -> ()
    | Some c ->
        let s = r.Pipeline.stats in
        Obs.Invariants.final_check c ~injected:s.Routing.Engine.injected
          ~dropped:s.Routing.Engine.dropped ~delivered:s.Routing.Engine.delivered
          ~sends:s.Routing.Engine.sends ~failed_sends:s.Routing.Engine.failed_sends
          ~total_cost:s.Routing.Engine.total_cost ~remaining:s.Routing.Engine.remaining;
        print_endline (String.trim (Obs.Invariants.report c));
        if not (Obs.Invariants.ok c) then exit 1
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Run a balancing-routing scenario against a certified adversary.")
    Term.(
      const run $ jobs_t $ seed_t $ (nodes_t ~min:2) $ theta_t $ range_factor_t $ delta_t $ dist_t
      $ scenario_t $ horizon_t $ flows_t $ epsilon_t $ trace_t $ trace_stride_t $ metrics_t
      $ events_t $ check_invariants_t $ chrome_trace_t $ live_t $ live_window_t $ live_prom_t)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)

let analyze_cmd =
  let file_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"EVENTS" ~doc:"adhoc-events/1 JSONL file (route --events FILE).")
  in
  let top_t =
    Arg.(
      value
      & opt (int_from 0) 15
      & info [ "top" ] ~docv:"K" ~doc:"Rows in the busiest-edges table (default 15).")
  in
  let svg_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg" ] ~docv:"FILE"
          ~doc:"Write a deliveries-over-time / buffer-occupancy chart to $(docv).")
  in
  let check_invariants_t =
    Arg.(
      value & flag
      & info [ "check-invariants" ]
          ~doc:"Replay the per-event invariants offline; exit non-zero on any violation.")
  in
  let replay_live_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay-live" ] ~docv:"FILE"
          ~doc:
            "Replay the event log through the live-telemetry recorder offline and write \
             the adhoc-live/1 snapshot stream to $(docv) — byte-identical to what route \
             --live produced online from the same events with the same window size.")
  in
  let live_window_t =
    Arg.(
      value
      & opt (int_from 1) 250
      & info [ "live-window" ] ~docv:"STEPS"
          ~doc:"Tumbling-window size in simulation steps for --replay-live (default 250).")
  in
  let run file top svg check_invariants replay_live live_window =
    match Obs.Event.load_jsonl file with
    | Error msg ->
        prerr_endline msg;
        exit 1
    | Ok events ->
        let j = Routing.Journey.analyze events in
        let t = j.Routing.Journey.totals in
        Printf.printf "%s: %d events, %d observed steps\n" file (Array.length events)
          t.Routing.Journey.steps;
        Printf.printf "injected / dropped   %d / %d\n" t.Routing.Journey.injected
          t.Routing.Journey.dropped;
        Printf.printf "delivered            %d (self %d)\n" t.Routing.Journey.delivered
          t.Routing.Journey.self_deliveries;
        Printf.printf "sends / collisions   %d / %d\n" t.Routing.Journey.sends
          t.Routing.Journey.collisions;
        Printf.printf "energy               %.6g\n" t.Routing.Journey.energy;
        if t.Routing.Journey.epochs > 0 then
          Printf.printf "epochs               %d\n" t.Routing.Journey.epochs;
        if t.Routing.Journey.height_adverts > 0 then
          Printf.printf "height adverts       %d\n" t.Routing.Journey.height_adverts;
        if j.Routing.Journey.anomalies > 0 then
          Printf.printf "REPLAY ANOMALIES     %d (corrupt or truncated log)\n"
            j.Routing.Journey.anomalies;
        let delivered_pkts =
          List.filter Routing.Packet.delivered j.Routing.Journey.packets
        in
        if delivered_pkts <> [] then begin
          (* Latency row uses Journey's pinned fields (they match
             Tracked_engine bit-for-bit); the hop / energy spread columns
             are computed here over the same delivered packets. *)
          let farr f = Array.of_list (List.map f delivered_pkts) in
          let hops = farr (fun p -> float_of_int p.Routing.Packet.hops) in
          let energy = farr (fun p -> p.Routing.Packet.energy) in
          let tb = Table.summary_table "per delivered packet" in
          Table.add_float_row tb "latency (steps)"
            [
              j.Routing.Journey.latency_mean;
              j.Routing.Journey.latency_median;
              j.Routing.Journey.latency_p95;
            ];
          Table.add_summary_row tb ~mean:j.Routing.Journey.hops_mean "hops" hops;
          Table.add_summary_row tb ~mean:j.Routing.Journey.energy_per_delivered "energy"
            energy;
          print_newline ();
          Table.print tb
        end;
        if Array.length j.Routing.Journey.edges > 0 then begin
          let edges = Array.copy j.Routing.Journey.edges in
          Array.sort
            (fun (a : Routing.Journey.edge_use) b ->
              compare
                (b.Routing.Journey.sends + b.Routing.Journey.collisions, a.Routing.Journey.edge)
                (a.Routing.Journey.sends + a.Routing.Journey.collisions, b.Routing.Journey.edge))
            edges;
          let tb =
            Table.create
              [
                ("edge", Table.Left);
                ("sends", Table.Right);
                ("collisions", Table.Right);
                ("energy", Table.Right);
                ("hol wait", Table.Right);
              ]
          in
          Array.iteri
            (fun i (e : Routing.Journey.edge_use) ->
              if i < top then
                Table.add_row tb
                  [
                    Printf.sprintf "%d (%d-%d)" e.Routing.Journey.edge e.Routing.Journey.u
                      e.Routing.Journey.v;
                    string_of_int e.Routing.Journey.sends;
                    string_of_int e.Routing.Journey.collisions;
                    Printf.sprintf "%.4f" e.Routing.Journey.energy;
                    Printf.sprintf "%.2f" (Routing.Journey.mean_wait e);
                  ])
            edges;
          print_newline ();
          Printf.printf "busiest edges (%d of %d used):\n" (min top (Array.length edges))
            (Array.length edges);
          Table.print tb
        end;
        (match svg with
        | Some out when Array.length j.Routing.Journey.timeline > 0 ->
            let pts f =
              Array.map
                (fun (step, del, buf) -> (float_of_int step, float_of_int (f del buf)))
                j.Routing.Journey.timeline
            in
            Viz.Chart.save ~title:"packet journeys" ~x_label:"step" ~y_label:"packets"
              [
                Viz.Chart.series ~label:"delivered (cumulative)" (pts (fun d _ -> d));
                Viz.Chart.series ~label:"buffered" (pts (fun _ b -> b));
              ]
              out;
            Printf.printf "wrote %s\n" out
        | Some _ -> prerr_endline "no timeline to chart (empty event log)"
        | None -> ());
        (match replay_live with
        | Some out ->
            let l = Obs.Live.create ~window:live_window () in
            Obs.Live.feed_array l events;
            Obs.Live.save_jsonl l out;
            Printf.printf "wrote %s (%d windows + final)\n" out
              (Obs.Live.finish l).Obs.Live.windows;
            print_newline ();
            print_live_summary l
        | None -> ());
        let bad = ref (j.Routing.Journey.anomalies > 0) in
        if check_invariants then begin
          match Obs.Invariants.run events with
          | [] ->
              Printf.printf "invariants ok (%d events checked)\n" (Array.length events)
          | vs ->
              bad := true;
              Printf.printf "%d invariant violation%s:\n" (List.length vs)
                (if List.length vs = 1 then "" else "s");
              List.iter
                (fun (v : Obs.Invariants.violation) ->
                  Printf.printf "  event %d: %s\n" v.Obs.Invariants.index
                    v.Obs.Invariants.reason)
                vs
        end;
        if !bad then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Reconstruct per-packet journeys from a recorded event log: latency / hop / \
          energy distributions, per-edge utilization, optional SVG time series, optional \
          offline replay of the live-telemetry stream.")
    Term.(const run $ file_t $ top_t $ svg_t $ check_invariants_t $ replay_live_t $ live_window_t)

(* ------------------------------------------------------------------ *)
(* geo                                                                 *)

let geo_cmd =
  let trials_t =
    Arg.(value & opt (int_from 1) 500 & info [ "trials" ] ~docv:"K" ~doc:"Random connected pairs to route.")
  in
  let run jobs seed n theta range_factor delta dist trials =
    with_jobs jobs @@ fun pool ->
    let rng, points, range, b = build ~pool seed n theta range_factor delta dist in
    ignore rng;
    let gabriel = Topo.Gabriel.build ~pool ~range points in
    let t = Table.create [ ("router", Table.Left); ("delivery rate", Table.Right) ] in
    Table.add_row t
      [
        "greedy on G*";
        Printf.sprintf "%.3f"
          (Routing.Geo.success_rate b.Pipeline.gstar points ~rng:(Prng.create (seed + 1))
             ~trials);
      ];
    Table.add_row t
      [
        "greedy on overlay";
        Printf.sprintf "%.3f"
          (Routing.Geo.success_rate b.Pipeline.overlay points ~rng:(Prng.create (seed + 1))
             ~trials);
      ];
    let failures = ref 0 and total = ref 0 and rec_used = ref 0 in
    let prng = Prng.create (seed + 2) in
    while !total < trials do
      let src = Prng.int prng n and dst = Prng.int prng n in
      if src <> dst then begin
        incr total;
        match Routing.Geo.greedy_face ~planar:gabriel b.Pipeline.gstar points ~src ~dst with
        | Some r -> if r.Routing.Geo.recovery_hops > 0 then incr rec_used
        | None -> incr failures
      end
    done;
    Table.add_row t
      [
        "greedy+face (Gabriel recovery)";
        Printf.sprintf "%.3f" (1. -. (float_of_int !failures /. float_of_int !total));
      ];
    Table.print t;
    Printf.printf "routes that needed face recovery: %d/%d\n" !rec_used !total
  in
  Cmd.v
    (Cmd.info "geo" ~doc:"Geographic (greedy / greedy+face) routing success rates.")
    Term.(
      const run $ jobs_t $ seed_t $ (nodes_t ~min:2) $ theta_t $ range_factor_t $ delta_t $ dist_t
      $ trials_t)

(* ------------------------------------------------------------------ *)
(* export                                                              *)

let export_cmd =
  let out_t =
    Arg.(value & opt string "network.txt" & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let what_t =
    let what_conv = Arg.enum [ ("network", `Net); ("svg", `Svg); ("dot", `Dot) ] in
    Arg.(
      value & opt what_conv `Net
      & info [ "format" ] ~docv:"FMT" ~doc:"network (text, reloadable), svg or dot.")
  in
  let run jobs seed n theta range_factor delta dist out what =
    with_jobs jobs @@ fun pool ->
    let _, points, _, b = build ~pool seed n theta range_factor delta dist in
    (match what with
    | `Net -> Io.Persist.save { Io.Persist.points; graph = b.Pipeline.overlay } out
    | `Svg ->
        Viz.Svg.save
          (Viz.Render.overlay_comparison points ~base:b.Pipeline.gstar ~sub:b.Pipeline.overlay)
          out
    | `Dot -> Viz.Dot.save points b.Pipeline.overlay out);
    Printf.printf "wrote %s\n" out
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Write the ΘALG overlay as a reloadable network file, SVG or DOT.")
    Term.(
      const run $ jobs_t $ seed_t $ (nodes_t ~min:1) $ theta_t $ range_factor_t $ delta_t $ dist_t $ out_t
      $ what_t)

let () =
  let info =
    Cmd.info "adhoc_sim" ~version:"1.0.0"
      ~doc:"Local algorithms for topology control and routing in ad hoc networks (SPAA 2003)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            topology_cmd;
            stretch_cmd;
            interference_cmd;
            route_cmd;
            analyze_cmd;
            geo_cmd;
            export_cmd;
          ]))
