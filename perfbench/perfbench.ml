(* perfbench — the repository benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--size full|tiny] [--corrupt-pin] [--print-pins]

   A run generates the workload's instance family from --seed (untimed),
   sized by --seconds, then evaluates the whole stack once on each
   instance and averages each metric over the family (see README.md).
   --trace 0 reports the end-to-end metrics, their times scaled to a
   reference machine speed; --trace 1 evaluates the family's first half
   as an untraced and a traced rep each and reports the per-layer
   metrics.  Every rep's outputs are checked; the last stdout line is the
   JSON result
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. *)

open Adhoc
open Stack

let workloads ~tiny =
  let wl name n scenario horizon must_deliver family =
    { name; n; scenario; horizon; must_deliver; family }
  in
  if tiny then
    [
      wl "route-n2048" 96 Mac_given 150 false 2;
      wl "flows-e7" 48 Mac_given 2000 true 2;
      wl "random-mac-recorded" 48 Random_mac 300 false 2;
    ]
  else
    [
      (* adhoc_sim route -n 2048 defaults, sequential: on a shared 2-vCPU
         machine a stalled second vCPU holds every pool barrier, and
         jobs-2 step rates fell 4.7x in one run where jobs-1 rates moved
         at most 1.5x.  Jobs-2 output is checked in traced runs. *)
      wl "route-n2048" 2048 Mac_given 500 false 26;
      (* E7's Theorem 3.1 regime: single instances with long flow paths can
         legitimately deliver nothing within the horizon, the instances of
         a run together cannot unless the step loop is degenerate. *)
      wl "flows-e7" 150 Mac_given 4000 true 140;
      (* Scenario 2, recorded and replayed offline. *)
      wl "random-mac-recorded" 150 Random_mac 8000 false 44;
    ]

(* Instances in a run: [wl.family] per 30 s of --seconds.  Each is
   evaluated once, so neither the instances nor the reps of a run depend
   on how fast the code runs. *)
let family_size ~tiny ~seconds wl =
  if tiny then wl.family
  else max 1 (int_of_float (Float.round (float_of_int wl.family *. seconds /. 30.)))

(* A traced run evaluates the family's first half, each instance as an
   untraced and a traced rep: as many reps as an untraced run. *)
let traced_size family = max 1 (family / 2)

(* Pool size of the traced jobs-invariance rerun. *)
let parallel_jobs = 2

(* Instance j of seed s is adhoc_sim route --seed (s + j * stride). *)
let instance_stride = 1_000_003

let end_to_end = [ ("wall_s", "s"); ("setup_s", "s"); ("steps_per_s", "1/s"); ("peak_heap_mb", "MB") ]

let per_layer =
  [
    ("topo.udg_s", "s");
    ("topo.theta_alg_s", "s");
    ("topo.overlay_edges", "count");
    ("interference.conflict_s", "s");
    ("interference.conflict_mwords", "Mwords");
    ("interference.number", "count");
    ("workload.certify_s", "s");
    ("workload.attempts", "count");
    ("workload.certified", "count");
    ("workload.certified_ratio", "ratio");
    ("workload.mwords", "Mwords");
    ("engine.loop_s", "s");
    ("engine.step_p50_us", "us");
    ("engine.step_p99_us", "us");
    ("engine.step_samples", "count");
    ("engine.words_per_step", "words/step");
    ("engine.sends", "count");
    ("engine.delivered", "count");
    ("engine.failed_sends", "count");
    ("pool.regions", "count");
    ("pool.items", "count");
    ("pool.imbalance", "ratio");
    ("pool.busy_mean_s", "s");
    ("mac.select_s", "s");
    ("mac.requests", "count");
    ("mac.grants", "count");
    ("mac.collision_ratio", "ratio");
    ("obs.events", "count");
    ("obs.log_mb", "MB");
    ("obs.save_s", "s");
    ("obs.load_s", "s");
    ("obs.replay_s", "s");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_mwords", "Mwords");
    ("trace.overhead_s", "s");
    ("trace.unattributed_s", "s");
    ("machine.ref_ms", "ms");
  ]

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
  corrupt_pin : bool;
  print_pins : bool;
}

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny] \
     [--corrupt-pin] [--print-pins]";
  exit 2

let parse_args () =
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--size" :: ("full" | "tiny" as v) :: rest -> go { a with tiny = v = "tiny" } rest
    | "--corrupt-pin" :: rest -> go { a with corrupt_pin = true } rest
    | "--print-pins" :: rest -> go { a with print_pins = true } rest
    | arg :: _ ->
        Printf.eprintf "perfbench: unexpected argument %S\n" arg;
        usage ()
  in
  let init =
    {
      workload = "";
      seed = Pins.default_seed;
      seconds = 10.;
      trace = false;
      tiny = false;
      corrupt_pin = false;
      print_pins = false;
    }
  in
  match go init (List.tl (Array.to_list Sys.argv)) with
  | exception (Failure _ | Invalid_argument _) -> usage ()
  | a -> a

(* ------------------------------------------------------------------ *)
(* Machine speed                                                       *)

(* The benchmark was tuned on a shared 2-vCPU VM whose speed moves by up
   to 1.7x over seconds to minutes, and every instance's cost moves with
   it.  A fixed reference loop, timed at every rep boundary, tracks that
   speed: over five runs of one seed, scaling each rep by it cut the
   spread of wall_s from 26% to 4.5%.  The loop uses only the standard
   library, works on its own two arrays and keeps nothing (its only
   allocations are short-lived minor-heap words inside Array.sort), so a
   change to the program or to the heap it leaves behind does not move
   it.  It runs after each rep's measurements are taken. *)
let reference_src = Array.init 20_000 (fun i -> (i * 7919) land 65535)

let reference_buf = Array.make 20_000 0

(* [reference ()] is the time of the reference loop: two blit-and-sorts of
   20000 ints. *)
let reference () =
  let t0 = now () in
  for _ = 1 to 2 do
    Array.blit reference_src 0 reference_buf 0 20_000;
    Array.sort Int.compare reference_buf
  done;
  now () -. t0

(* The reference loop's time on the tuned machine at its usual speed. *)
let reference_ms = 12.

(* End-to-end times are reported at the reference speed: each rep's
   times are scaled by [reference_ms] over the mean of the reference loop
   timed just before and just after the rep. *)
let at_reference_speed values =
  let f = reference_ms /. List.assoc "machine.ref_ms" values in
  List.map
    (fun (name, x) ->
      match name with
      | "wall_s" | "setup_s" -> (name, x *. f)
      | "steps_per_s" -> (name, x /. f)
      | _ -> (name, x))
    values

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)

(* [family_value reps name]: the mean of the metric over the instances
   whose rep succeeded. *)
let family_value (reps : (string * float) list option array) name =
  match Array.to_list reps |> List.filter_map (fun r -> Option.bind r (List.assoc_opt name)) with
  | [] -> None
  | vs -> Some (List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs))

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

(* Per-process scratch directory for the recorded workload's log files. *)
let scratch_root = ".perfbench-run"

let scratch_dir = Filename.concat scratch_root (string_of_int (Unix.getpid ()))

let () =
  let a = parse_args () in
  let wl =
    match List.find_opt (fun w -> w.name = a.workload) (workloads ~tiny:a.tiny) with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S\n" a.workload;
        usage ()
  in
  List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) [ scratch_root; scratch_dir ];
  let family = family_size ~tiny:a.tiny ~seconds:a.seconds wl in
  let evaluated = if a.trace then traced_size family else family in
  let inputs =
    Array.init evaluated (fun j -> make_input wl (a.seed + (j * instance_stride)))
  in
  let pins =
    if a.corrupt_pin then Some (Array.make evaluated "deliberately wrong pin")
    else if a.seed = Pins.default_seed && not (a.tiny || a.print_pins) then Pins.lines wl.name
    else None
  in
  let untraced = Array.make evaluated None and traced = Array.make evaluated None in
  let lines = Array.make evaluated None in
  let attempted = ref 0 and failed = ref 0 and delivered = ref 0 in
  let fail what msg =
    incr failed;
    Printf.eprintf "perfbench: %s: %s\n%!" what msg
  in
  (* A check of the run as a whole counts as one more attempt. *)
  let check_run cond msg =
    incr attempted;
    if not cond then fail wl.name msg
  in
  let pool = Util.Pool.create ~jobs:1 () in
  (* The reference loop's last time; every rep boundary times it once. *)
  let boundary = ref (reference ()) in
  Fun.protect
    ~finally:(fun () -> Util.Pool.shutdown pool)
    (fun () ->
      let one j (input : input) ~traced:tr =
        let what = Printf.sprintf "%s seed %d" wl.name input.seed in
        Gc.full_major ();
        incr attempted;
        let before = !boundary in
        let result = try Ok (run ~traced:tr ~pool ~scratch:scratch_dir wl input) with e -> Error e in
        boundary := reference ();
        let ref_ms = (before +. !boundary) /. 2. *. 1e3 in
        match result with
        | Error e ->
            fail what (Printexc.to_string e);
            None
        | Ok r ->
            let problems =
              match pins with
              | Some p when j < Array.length p && p.(j) <> r.stats_line ->
                  Printf.sprintf "stats differ from the pin:\n  got  %s\n  want %s" r.stats_line
                    p.(j)
                  :: r.problems
              | _ -> r.problems
            in
            (* Tracing observes; it must not change what the stack computes. *)
            let problems =
              if tr && lines.(j) <> Some r.stats_line then
                "traced stats differ from the untraced rep's" :: problems
              else problems
            in
            if problems <> [] then fail what (String.concat "; " problems);
            if not tr then begin
              lines.(j) <- Some r.stats_line;
              delivered := !delivered + r.delivered
            end;
            Some (("machine.ref_ms", ref_ms) :: r.values)
      in
      Array.iteri
        (fun j input ->
          untraced.(j) <- one j input ~traced:false;
          if a.trace then traced.(j) <- one j input ~traced:true)
        inputs;
      (* Single instances with long flows can deliver nothing within the
         horizon; the instances of a run together cannot, unless the step
         loop never moves a packet. *)
      if wl.must_deliver then check_run (!delivered > 0) "no deliveries in the whole run";
      (* The benchmark wires the layers itself; the library's own wiring
         must give instance 0 the same stats, or the figures are not the
         program's. *)
      (match Stack.pipeline_line ~pool wl inputs.(0) with
      | exception e -> check_run false ("Pipeline rerun: " ^ Printexc.to_string e)
      | l ->
          check_run (Some l = lines.(0))
            (Printf.sprintf "Pipeline.prepare + run_scenario gives other stats:\n  got  %s" l));
      (* Jobs-invariance, checked in the traced run: instance 0 on a
         2-domain pool must reproduce the sequential stats exactly. *)
      if a.trace then
        match
          Util.Pool.with_pool ~jobs:parallel_jobs (fun p ->
              run ~traced:false ~pool:p ~scratch:scratch_dir wl inputs.(0))
        with
        | exception e -> check_run false ("jobs-2 rerun: " ^ Printexc.to_string e)
        | r -> check_run (Some r.stats_line = lines.(0)) "stats at jobs 2 differ from the sequential run");
  List.iter (fun d -> try Sys.rmdir d with Sys_error _ -> ()) [ scratch_dir; scratch_root ];
  if a.print_pins then begin
    Printf.printf "  | %S ->\n      Some\n        [|\n" wl.name;
    Array.iter (fun l -> Printf.printf "          %S;\n" (Option.value l ~default:"")) lines;
    print_endline "        |]"
  end;
  let metrics =
    if not a.trace then
      let scaled = Array.map (Option.map at_reference_speed) untraced in
      List.map (fun (name, unit) -> (name, unit, family_value scaled name)) end_to_end
    else
      List.map
        (fun (name, unit) ->
          let v =
            if name = "trace.overhead_s" then
              match
                (family_value traced "wall_s", family_value untraced "wall_s")
              with
              | Some t, Some u -> Some (t -. u)
              | _ -> None
            else family_value traced name
          in
          (name, unit, v))
        per_layer
  in
  (* A non-finite value has no JSON encoding; it is reported missing. *)
  let metrics =
    List.map
      (fun (name, unit, v) -> (name, unit, Option.bind v (fun x -> if Float.is_finite x then Some x else None)))
      metrics
  in
  let ok = !failed = 0 && List.for_all (fun (_, _, v) -> v <> None) metrics in
  Printf.printf "%s: seed %d, %d instances, %d reps and run checks attempted, %d failed (fail_rate %g)\n"
    wl.name a.seed evaluated !attempted !failed
    (float_of_int !failed /. float_of_int (max 1 !attempted));
  List.iter
    (fun (name, unit, v) ->
      match v with
      | Some x -> Printf.printf "  %-30s %14.6g %s\n" name x unit
      | None -> Printf.printf "  %-30s %14s %s\n" name "missing" unit)
    metrics;
  if not a.trace then begin
    let measured name = Option.value (family_value untraced name) ~default:Float.nan in
    Printf.printf "  as measured, before scaling to the %g ms reference loop:\n" reference_ms;
    List.iter
      (fun name -> Printf.printf "  %-30s %14.6g\n" name (measured name))
      [ "wall_s"; "setup_s"; "steps_per_s"; "machine.ref_ms" ]
  end;
  let body =
    metrics
    |> List.filter_map (fun (name, unit, v) ->
           Option.map
             (fun x -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name x unit)
             v)
    |> String.concat ", "
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" ok
    !attempted !failed body
