(* B1: Bechamel micro-benchmarks of the core construction and simulation
   primitives, one Test.make per operation. *)

open Adhoc
open Bechamel
open Toolkit
module Prng = Util.Prng

let n = 256

let fixture =
  lazy
    (let rng = Prng.create 2024 in
     let points = Pointset.Generators.uniform rng n in
     let range = 1.5 *. Topo.Udg.critical_range points in
     let b = Pipeline.prepare ~theta:(Float.pi /. 6.) ~range points in
     (points, range, b))

(* Routing hot-path benchmarks run at n = 512 on prebuilt workloads, so the
   measured cost is the engine itself, not instance construction. *)
let routing_fixture =
  lazy
    (let rng = Prng.create 2024 in
     let points = Pointset.Generators.uniform rng 512 in
     let range = 1.5 *. Topo.Udg.critical_range points in
     let b = Pipeline.prepare ~theta:(Float.pi /. 6.) ~range points in
     let config =
       { Routing.Workload.horizon = 2000; attempts = 1000; slack = 12; interference_free = false }
     in
     let w =
       Routing.Workload.flows config ~rng:(Prng.create 5) ~graph:b.Pipeline.overlay
         ~cost:Graphs.Cost.length ~num_flows:4
     in
     let wq =
       Routing.Workload.flows ~conflict:b.Pipeline.conflict
         { config with Routing.Workload.interference_free = true }
         ~rng:(Prng.create 6) ~graph:b.Pipeline.overlay ~cost:Graphs.Cost.length
         ~num_flows:4
     in
     (b, w, wq))

let certify ~conflict graph =
  let config =
    {
      Routing.Workload.horizon = 2000;
      attempts = 4000;
      slack = 12;
      interference_free = conflict <> None;
    }
  in
  Routing.Workload.flows ?conflict config ~rng:(Prng.create 5) ~graph
    ~cost:(Graphs.Cost.energy ~kappa:2.) ~num_flows:2

let routing_params = Routing.Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:100

let tests () =
  let points, range, b = Lazy.force fixture in
  let theta = Float.pi /. 6. in
  let overlay = b.Pipeline.overlay in
  let gstar = b.Pipeline.gstar in
  Test.make_grouped ~name:"micro"
    [
      Test.make ~name:"udg-build" (Staged.stage (fun () -> Topo.Udg.build ~range points));
      Test.make ~name:"yao-build" (Staged.stage (fun () -> Topo.Yao.graph ~theta ~range points));
      Test.make ~name:"theta-alg-build"
        (Staged.stage (fun () -> Topo.Theta_alg.build ~theta ~range points));
      Test.make ~name:"gabriel-build" (Staged.stage (fun () -> Topo.Gabriel.build ~range points));
      Test.make ~name:"delaunay-build"
        (Staged.stage (fun () -> Topo.Delaunay.build ~range points));
      Test.make ~name:"mst-build" (Staged.stage (fun () -> Graphs.Mst.of_points points));
      Test.make ~name:"conflict-build"
        (Staged.stage (fun () ->
             Interference.Conflict.build (Interference.Model.make ~delta:0.5) ~points overlay));
      Test.make ~name:"dijkstra-sssp"
        (Staged.stage (fun () -> Graphs.Dijkstra.run overlay ~cost:Graphs.Cost.length ~src:0));
      (* Workload certification at route's settings (2 flows, attempts =
         2 × horizon, slack 12): without interference checks, as for the
         random MAC, and interference-free, as for the padded MAC-given
         scenario. *)
      Test.make ~name:"workload-certify-random-mac"
        (Staged.stage (fun () -> certify ~conflict:None overlay));
      Test.make ~name:"workload-certify-pad"
        (Staged.stage (fun () -> certify ~conflict:(Some b.Pipeline.conflict) overlay));
      Test.make ~name:"energy-stretch"
        (Staged.stage (fun () ->
             Graphs.Stretch.over_base_edges ~sub:overlay ~base:gstar
               ~cost:(Graphs.Cost.energy ~kappa:2.) ()));
      Test.make ~name:"engine-1000-steps"
        (Staged.stage (fun () ->
             let rng = Prng.create 5 in
             let config =
               { Routing.Workload.horizon = 1000; attempts = 500; slack = 12; interference_free = false }
             in
             let w =
               Routing.Workload.flows config ~rng ~graph:overlay ~cost:Graphs.Cost.length
                 ~num_flows:2
             in
             let params =
               Routing.Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:100
             in
             Routing.Engine.run_mac_given ~graph:overlay ~cost:Graphs.Cost.length ~params w));
      Test.make ~name:"routing-csma-2500-steps-n512"
        (Staged.stage (fun () ->
             let b, w, _ = Lazy.force routing_fixture in
             let mac = Mac_protocols.Mac.csma ~rng:(Prng.create 7) b.Pipeline.conflict in
             Routing.Engine.run_with_mac ~cooldown:500 ~collisions:b.Pipeline.conflict
               ~graph:b.Pipeline.overlay ~cost:Graphs.Cost.length ~params:routing_params
               ~mac w));
      Test.make ~name:"routing-pad-2500-steps-n512"
        (Staged.stage (fun () ->
             let b, _, wq = Lazy.force routing_fixture in
             Routing.Engine.run_mac_given ~cooldown:500 ~pad:b.Pipeline.conflict
               ~graph:b.Pipeline.overlay ~cost:Graphs.Cost.length ~params:routing_params
               wq));
    ]

let run () =
  Common.header "B1: micro-benchmarks (Bechamel, monotonic clock)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg instances (tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> rows := (name, ns) :: !rows
      | _ -> ())
    results;
  let t =
    Util.Table.create
      [ ("operation (n = 256 unless noted)", Util.Table.Left); ("time per run", Util.Table.Right) ]
  in
  let fmt_time ns =
    if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  List.iter
    (fun (name, ns) ->
      Common.record_float ("ns_per_run:" ^ name) ns;
      Util.Table.add_row t [ name; fmt_time ns ])
    (List.sort (fun (_, a) (_, b) -> Float.compare a b) !rows);
  Util.Table.print t
