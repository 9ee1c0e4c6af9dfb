(* One instance of the paper's stack, driven from outside the library in the
   order Pipeline.prepare + Pipeline.run_scenario{1,2} use: G*, ΘALG overlay,
   conflict structure, certified workload, parameter derivation, (MAC,) step
   loop — and, for Scenario 2, recorded the way route --events --live
   --check-invariants flush plus the offline analyze --check-invariants
   --replay-live half.

   Every layer call is timed from this side of the API; nothing inside lib/
   is instrumented for the benchmark.  An untraced rep reads the clock only
   at the stage boundaries the end-to-end metrics need; a traced rep also
   times each layer call, reads GC deltas around it, timestamps every step
   through the public [?on_step] hook, wraps [Mac.t.select], and profiles
   the domain pool through [Obs.attach_pool ~domprof]. *)

open Adhoc
module Prng = Util.Prng
module Graph = Graphs.Graph
module Conflict = Interference.Conflict
module Workload = Routing.Workload
module Engine = Routing.Engine
module Balancing = Routing.Balancing
module Journey = Routing.Journey
module Mac = Mac_protocols.Mac

type scenario = Mac_given | Random_mac

type workload = {
  name : string;
  n : int;
  scenario : scenario;
  horizon : int;
  must_deliver : bool;  (** the instances of a run deliver some packet *)
  family : int;  (** instances per 30 s of --seconds *)
}

(* adhoc_sim route defaults. *)
let theta = Float.pi /. 6.
let range_factor = 1.5
let delta = 0.5
let epsilon = 0.5
let flows = 2
let kappa = 2.
let live_window = 250

(* Nanosecond monotonic clock, read without allocating. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Untimed inputs                                                      *)

type input = {
  seed : int;  (** [adhoc_sim route --seed] that reproduces this instance *)
  points : Geom.Point.t array;
  range : float;
  rng : Prng.t;  (** generator state after the points; copied per rep *)
}

(* Same draw order as adhoc_sim's [build]: points first, then the
   workload continues on the same generator. *)
let make_input wl seed =
  let rng = Prng.create seed in
  let points = Pointset.Generators.uniform rng wl.n in
  let range = range_factor *. Topo.Udg.critical_range points in
  { seed; points; range; rng }

(* ------------------------------------------------------------------ *)
(* One rep                                                             *)

type rep = {
  values : (string * float) list;  (** metric name -> value for this rep *)
  stats_line : string;  (** OPT and routing stats, compared against pins *)
  problems : string list;  (** failed output checks; [] when the rep is correct *)
  delivered : int;
}

let stats_line range inum (opt : Workload.opt_stats) (s : Engine.stats) =
  Printf.sprintf
    "range=%.17g I=%d opt=%d/%.17g/%.17g/%d/%d stats=%d/%d/%d/%d/%d/%d/%.17g/%d/%d" range
    inum opt.Workload.deliveries opt.Workload.total_cost opt.Workload.avg_hops
    opt.Workload.max_buffer opt.Workload.delta s.Engine.steps s.Engine.injected
    s.Engine.dropped s.Engine.delivered s.Engine.sends s.Engine.failed_sends
    s.Engine.total_cost s.Engine.peak_height s.Engine.remaining

(* Traced-rep accumulators.  Float cells live in float arrays so the hot
   hooks store unboxed. *)
type tracer = {
  mutable layers : (string * float) list;
  step_times : float array;  (** timestamp after each step *)
  mac_time : float array;  (** [| seconds in select |] *)
  mutable mac_requests : int;
  mutable mac_grants : int;
}

let percentile sorted p =
  let k = Array.length sorted in
  if k = 0 then 0.
  else sorted.(min (k - 1) (int_of_float (Float.round (p *. float_of_int (k - 1)))))

let file_size path = In_channel.with_open_bin path In_channel.length |> Int64.to_float

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [run ~traced ~pool ~scratch wl input] evaluates one instance end to end.
   Output checks never raise: failures are returned in [problems]. *)
let run ~traced ~pool ~scratch wl input =
  let tr =
    if traced then
      Some
        {
          layers = [];
          step_times = Array.make (2 * wl.horizon) 0.;
          mac_time = [| 0. |];
          mac_requests = 0;
          mac_grants = 0;
        }
    else None
  in
  (* [layer name f] times a top-level layer call (and its minor words, on
     this domain) in a traced rep; untraced it just calls [f]. *)
  let layer name f =
    match tr with
    | None -> f ()
    | Some t ->
        let w0 = Gc.minor_words () in
        let t0 = now () in
        let r = f () in
        let t1 = now () in
        let w1 = Gc.minor_words () in
        t.layers <- (name ^ "_s", t1 -. t0) :: (name ^ "_mwords", (w1 -. w0) /. 1e6) :: t.layers;
        r
  in
  let pool_prof =
    match tr with
    | None -> None
    | Some _ ->
        let dp = Obs.Domprof.create () in
        let sink = Obs.create () in
        Obs.attach_pool ~domprof:dp sink pool;
        Some (dp, sink)
  in
  let gc0 = Gc.quick_stat () in
  (* The rep's peak major-heap size: sampled at the end of every major
     cycle and at the layer boundaries below. *)
  let peak_heap = ref 0 in
  let sample_heap () = peak_heap := max !peak_heap (Gc.quick_stat ()).Gc.heap_words in
  let alarm = Gc.create_alarm sample_heap in
  let rng = Prng.copy input.rng in
  let t0 = now () in
  (* Scenario 2 carries the same sink route --events --live
     --check-invariants builds: an event log with the live recorder and the
     invariant checker observing it online. *)
  let recording =
    if wl.scenario = Random_mac then begin
      let live = Obs.Live.create ~window:live_window () in
      let events = Obs.Event.create () in
      let sink = Obs.create ~events ~live () in
      if pool_prof = None then Obs.attach_pool sink pool;
      Some (sink, events, live)
    end
    else None
  in
  let obs = Option.map (fun (s, _, _) -> s) recording in
  let _gstar = layer "topo.udg" (fun () -> Topo.Udg.build ~pool ~range:input.range input.points) in
  let alg =
    layer "topo.theta_alg" (fun () ->
        Topo.Theta_alg.build ~pool ~theta ~range:input.range input.points)
  in
  let overlay = Topo.Theta_alg.overlay alg in
  let conflict =
    layer "interference.conflict" (fun () ->
        Conflict.build ~pool (Interference.Model.make ~delta) ~points:input.points overlay)
  in
  let inum = Conflict.interference_number conflict in
  sample_heap ();
  let checker =
    Option.map
      (fun (_, events, _) ->
        let c = Obs.Invariants.create ~endpoints:(Graph.endpoints overlay) () in
        Obs.Invariants.attach c events;
        c)
      recording
  in
  let cost = Graphs.Cost.energy ~kappa in
  let horizon = wl.horizon in
  let attempts = 2 * horizon in
  let config =
    { Workload.horizon; attempts; slack = 12; interference_free = wl.scenario = Mac_given }
  in
  let w =
    layer "workload.certify" (fun () ->
        match wl.scenario with
        | Mac_given ->
            Workload.flows ~conflict config ~rng ~graph:overlay ~cost ~num_flows:flows
        | Random_mac -> Workload.flows config ~rng ~graph:overlay ~cost ~num_flows:flows)
  in
  sample_heap ();
  let opt = w.Workload.opt in
  let opt_avg_cost = Float.max opt.Workload.avg_cost 1e-9 in
  let first_step = [| 0. |] in
  let on_step =
    match tr with
    | None -> fun ~step ~delivered:_ ~buffered:_ -> if step = 0 then first_step.(0) <- now ()
    | Some t ->
        fun ~step ~delivered:_ ~buffered:_ ->
          let x = now () in
          t.step_times.(step) <- x;
          if step = 0 then first_step.(0) <- x
  in
  let loop_w0 = ref 0. in
  let stats =
    match wl.scenario with
    | Mac_given ->
        let params =
          Balancing.Derive.theorem_3_1 ~opt_buffer:opt.Workload.max_buffer
            ~opt_avg_hops:opt.Workload.avg_hops ~opt_avg_cost ~delta:opt.Workload.delta
            ~epsilon
        in
        layer "engine.loop" (fun () ->
            loop_w0 := Gc.minor_words ();
            Engine.run_mac_given ~cooldown:horizon ?obs ~pool ~on_step ~pad:conflict
              ~graph:overlay ~cost ~params w)
    | Random_mac ->
        let params =
          Balancing.Derive.theorem_3_3 ~opt_buffer:opt.Workload.max_buffer
            ~opt_avg_hops:opt.Workload.avg_hops ~opt_avg_cost ~epsilon
        in
        let mac = Mac.random_interference ~rng:(Prng.split rng) conflict in
        let mac =
          match tr with
          | None -> mac
          | Some t ->
              let select ~step requests =
                let s0 = now () in
                let granted = mac.Mac.select ~step requests in
                t.mac_time.(0) <- t.mac_time.(0) +. (now () -. s0);
                t.mac_requests <- t.mac_requests + List.length requests;
                t.mac_grants <- t.mac_grants + List.length granted;
                granted
              in
              { mac with Mac.select }
        in
        layer "engine.loop" (fun () ->
            loop_w0 := Gc.minor_words ();
            Engine.run_with_mac ~cooldown:horizon ?obs ~pool ~on_step ~collisions:conflict
              ~graph:overlay ~cost ~params ~mac w)
  in
  let loop_end = now () in
  let loop_words = Gc.minor_words () -. !loop_w0 in
  sample_heap ();
  let problems = ref [] in
  let check cond msg = if not cond then problems := msg :: !problems in
  check
    (stats.Engine.injected = stats.Engine.delivered + stats.Engine.remaining)
    (Printf.sprintf "conservation: injected %d <> delivered %d + remaining %d"
       stats.Engine.injected stats.Engine.delivered stats.Engine.remaining);
  check (stats.Engine.sends > 0) "no sends";
  (* route --events / --live write their files; analyze loads the log and
     replays it through Journey, the invariants and the live recorder. *)
  let obs_values, t_end =
    match recording with
    | None -> ([], loop_end)
    | Some (_, events, live) ->
        let ev_file = Filename.concat scratch "events.jsonl" in
        let live_file = Filename.concat scratch "live.jsonl" in
        let replay_file = Filename.concat scratch "replay.jsonl" in
        let s0 = now () in
        Obs.Event.save_jsonl events ev_file;
        Obs.Live.save_jsonl live live_file;
        let s1 = now () in
        let loaded = Obs.Event.load_jsonl ev_file in
        let s2 = now () in
        let replay =
          match loaded with
          | Error msg ->
              check false ("event log reload: " ^ msg);
              None
          | Ok arr ->
              let j = Journey.analyze arr in
              let offline_violations = Obs.Invariants.run arr in
              let l = Obs.Live.create ~window:live_window () in
              Obs.Live.feed_array l arr;
              Obs.Live.save_jsonl l replay_file;
              Some (j, offline_violations)
        in
        let s3 = now () in
        (match checker with
        | None -> ()
        | Some c ->
            Obs.Invariants.final_check c ~injected:stats.Engine.injected
              ~dropped:stats.Engine.dropped ~delivered:stats.Engine.delivered
              ~sends:stats.Engine.sends ~failed_sends:stats.Engine.failed_sends
              ~total_cost:stats.Engine.total_cost ~remaining:stats.Engine.remaining;
            check (Obs.Invariants.ok c)
              (Printf.sprintf "online invariants: %d violations"
                 (Obs.Invariants.violation_count c)));
        (match replay with
        | None -> ()
        | Some (j, offline_violations) ->
            let t = j.Journey.totals in
            check (offline_violations = [])
              (Printf.sprintf "offline invariants: %d violations"
                 (List.length offline_violations));
            check (j.Journey.anomalies = 0) "journey replay anomalies";
            check
              (t.Journey.injected = stats.Engine.injected
              && t.Journey.dropped = stats.Engine.dropped
              && t.Journey.delivered = stats.Engine.delivered
              && t.Journey.sends + t.Journey.collisions = stats.Engine.sends
              && t.Journey.collisions = stats.Engine.failed_sends
              && Int64.equal
                   (Int64.bits_of_float t.Journey.energy)
                   (Int64.bits_of_float stats.Engine.total_cost))
              "journey totals differ from engine stats";
            check (read_file live_file = read_file replay_file)
              "replayed live stream differs from the online one");
        let log_mb = file_size ev_file /. 1e6 in
        List.iter
          (fun f -> if Sys.file_exists f then Sys.remove f)
          [ ev_file; live_file; replay_file ];
        ( [
            ("obs.events", float_of_int (Obs.Event.length events));
            ("obs.log_mb", log_mb);
            ("obs.save_s", s1 -. s0);
            ("obs.load_s", s2 -. s1);
            ("obs.replay_s", s3 -. s2);
          ],
          s3 )
  in
  sample_heap ();
  Gc.delete_alarm alarm;
  (* The pool's hooks hold the rep's sink (and its event log); drop them
     so nothing of this rep survives into the next one. *)
  if pool_prof <> None || recording <> None then Obs.detach_pool pool;
  let steps = stats.Engine.steps in
  let e2e =
    [
      ("wall_s", t_end -. t0);
      ("setup_s", first_step.(0) -. t0);
      ("steps_per_s", float_of_int (steps - 1) /. (loop_end -. first_step.(0)));
      ("peak_heap_mb", float_of_int (!peak_heap * (Sys.word_size / 8)) /. 1e6);
    ]
  in
  let values =
    match tr with
    | None -> e2e
    | Some t ->
        let gc1 = Gc.quick_stat () in
        let durations =
          Array.init (max 0 (steps - 1)) (fun i ->
              (t.step_times.(i + 1) -. t.step_times.(i)) *. 1e6)
        in
        Array.sort Float.compare durations;
        let pool_values =
          match pool_prof with
          | None -> []
          | Some (dp, sink) ->
              let counter name =
                match List.assoc_opt name (Obs.Metrics.snapshot sink.Obs.metrics) with
                | Some (Obs.Metrics.Counter c) -> float_of_int c
                | _ -> 0.
              in
              let imbalance, busy_mean =
                match Obs.Domprof.summary dp with
                | Some s -> (s.Obs.Domprof.imbalance, s.Obs.Domprof.busy_mean)
                | None -> (1., 0.)
              in
              [
                ("pool.regions", counter "pool.regions");
                ("pool.items", counter "pool.items");
                ("pool.imbalance", imbalance);
                ("pool.busy_mean_s", busy_mean);
              ]
        in
        let layer_s name = List.assoc (name ^ "_s") t.layers in
        let obs_s name = Option.value (List.assoc_opt name obs_values) ~default:0. in
        let attributed =
          layer_s "topo.udg" +. layer_s "topo.theta_alg" +. layer_s "interference.conflict"
          +. layer_s "workload.certify" +. layer_s "engine.loop" +. obs_s "obs.save_s"
          +. obs_s "obs.load_s" +. obs_s "obs.replay_s"
        in
        let sends = stats.Engine.sends in
        e2e
        @ [
            ("topo.udg_s", layer_s "topo.udg");
            ("topo.theta_alg_s", layer_s "topo.theta_alg");
            ("topo.overlay_edges", float_of_int (Graph.num_edges overlay));
            ("interference.conflict_s", layer_s "interference.conflict");
            ("interference.conflict_mwords", List.assoc "interference.conflict_mwords" t.layers);
            ("interference.number", float_of_int inum);
            ("workload.certify_s", layer_s "workload.certify");
            ("workload.attempts", float_of_int attempts);
            ("workload.certified", float_of_int opt.Workload.deliveries);
            ( "workload.certified_ratio",
              float_of_int opt.Workload.deliveries /. float_of_int attempts );
            ("workload.mwords", List.assoc "workload.certify_mwords" t.layers);
            ("engine.loop_s", layer_s "engine.loop");
            ("engine.step_p50_us", percentile durations 0.5);
            ("engine.step_p99_us", percentile durations 0.99);
            ("engine.step_samples", float_of_int (Array.length durations));
            ("engine.words_per_step", loop_words /. float_of_int steps);
            ("engine.sends", float_of_int sends);
            ("engine.delivered", float_of_int stats.Engine.delivered);
            ("engine.failed_sends", float_of_int stats.Engine.failed_sends);
            ("mac.select_s", t.mac_time.(0));
            ("mac.requests", float_of_int t.mac_requests);
            ("mac.grants", float_of_int t.mac_grants);
            ( "mac.collision_ratio",
              if sends = 0 then 0.
              else float_of_int stats.Engine.failed_sends /. float_of_int sends );
            ("obs.events", obs_s "obs.events");
            ("obs.log_mb", obs_s "obs.log_mb");
            ("obs.save_s", obs_s "obs.save_s");
            ("obs.load_s", obs_s "obs.load_s");
            ("obs.replay_s", obs_s "obs.replay_s");
            ("gc.minor_collections", float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
            ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
            ("gc.promoted_mwords", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. 1e6);
            ("trace.unattributed_s", t_end -. t0 -. attributed);
          ]
        @ pool_values
  in
  {
    values;
    stats_line = stats_line input.range inum opt stats;
    problems = List.rev !problems;
    delivered = stats.Engine.delivered;
  }

(* [pipeline_line ~pool wl input] is the stats line the library's own
   wiring gives for [input]: Pipeline.prepare + Pipeline.run_scenario{1,2}
   with route's arguments, as adhoc_sim route calls them.  Untimed; a run
   requires it to equal [run]'s line, so the benchmark keeps timing what
   the program does. *)
let pipeline_line ~pool wl input =
  let b = Pipeline.prepare ~delta ~theta ~pool ~range:input.range input.points in
  let rng = Prng.copy input.rng in
  let horizon = wl.horizon in
  let scenario =
    match wl.scenario with
    | Mac_given -> Pipeline.run_scenario1
    | Random_mac -> Pipeline.run_scenario2
  in
  let r = scenario ~epsilon ~horizon ~attempts:(2 * horizon) ~flows ~kappa ~pool ~rng b in
  stats_line input.range b.Pipeline.interference_number r.Pipeline.opt r.Pipeline.stats
