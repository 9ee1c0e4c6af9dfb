module Graph = Adhoc_graph.Graph
module Conflict = Adhoc_interference.Conflict
module Model = Adhoc_interference.Model
module Event = Adhoc_obs.Event

type epoch = {
  graph : Graph.t;
  conflict : Conflict.t;
  steps : int;
}

let epoch_of_points ?(delta = 0.5) ?(theta = Float.pi /. 6.) ?(range_factor = 1.5) ~steps
    points =
  let range = range_factor *. Adhoc_topo.Udg.critical_range points in
  let overlay = Adhoc_topo.Theta_alg.overlay (Adhoc_topo.Theta_alg.build ~theta ~range points) in
  let conflict = Conflict.build (Model.make ~delta) ~points overlay in
  { graph = overlay; conflict; steps }

let run ?obs ?pool ~epochs ~injections ~cost ~params () =
  let n =
    match epochs with
    | [] -> invalid_arg "Dynamic_engine.run: no epochs"
    | e :: _ -> Graph.n e.graph
  in
  if List.exists (fun e -> Graph.n e.graph <> n) epochs then
    invalid_arg "Dynamic_engine.run: epochs disagree on node count";
  (* Interference-free TDMA: each epoch activates one colour class of its
     conflict structure per step.  Built (and checked) for every epoch
     before the first step runs. *)
  let sources =
    List.map
      (fun e -> (e, Step_kernel.classes ~entry:"Dynamic_engine.run" e.graph e.conflict))
      epochs
  in
  let k = Step_kernel.create ?obs ?pool ~params ~n () in
  let events = Adhoc_obs.events obs in
  List.iteri
    (fun i (epoch, source) ->
      (match events with
      | None -> ()
      | Some log -> Event.epoch_change log ~step:(Step_kernel.now k) ~epoch:i);
      (* The decision cache is rebuilt per epoch (the topology changed);
         buffers persist, and a new cache starts all-invalid, so no stale
         decisions survive an epoch boundary. *)
      Step_kernel.run k ~steps:epoch.steps ~injections source
        (Step_kernel.cached k epoch.graph cost))
    sources;
  Step_kernel.finish k
