module Graph = Adhoc_graph.Graph
module Mac = Adhoc_mac.Mac

type stats = Step_kernel.stats = {
  steps : int;
  injected : int;
  dropped : int;
  delivered : int;
  sends : int;
  failed_sends : int;
  total_cost : float;
  peak_height : int;
  remaining : int;
}

let throughput_ratio s (opt : Workload.opt_stats) =
  if opt.Workload.deliveries = 0 then 0.
  else float_of_int s.delivered /. float_of_int opt.Workload.deliveries

let cost_ratio s (opt : Workload.opt_stats) =
  if s.delivered = 0 || opt.Workload.avg_cost <= 0. then Float.nan
  else s.total_cost /. float_of_int s.delivered /. opt.Workload.avg_cost

let run_mac_given ?(cooldown = 0) ?obs ?pool ?on_step ?on_send ?on_inject ?cost_at ?pad
    ~graph ~cost ~params (w : Workload.t) =
  let source = Step_kernel.activations ~entry:"Engine.run_mac_given" graph ?pad w in
  (* [cost_at] is an arbitrary closure that changes the costs every step,
     so that path neither caches decisions nor fans them out on the pool. *)
  let pool = match cost_at with None -> pool | Some _ -> None in
  let k =
    Step_kernel.create ?obs ?pool ?on_step ?on_send ?on_inject ~params ~n:(Graph.n graph) ()
  in
  let decider =
    match cost_at with
    | None -> Step_kernel.cached k graph cost
    | Some f -> Step_kernel.uncached k graph f
  in
  Step_kernel.run k ~steps:(w.Workload.horizon + cooldown)
    ~injections:(Step_kernel.injections_of w) source decider;
  Step_kernel.finish k

let run_with_mac ?(cooldown = 0) ?obs ?pool ?on_step ?on_send ?on_inject ?collisions ~graph
    ~cost ~params ~mac (w : Workload.t) =
  let mac = match obs with None -> mac | Some o -> Mac.instrument o mac in
  let source = Step_kernel.granted ~entry:"Engine.run_with_mac" graph ?collisions mac in
  let k =
    Step_kernel.create ?obs ?pool ?on_step ?on_send ?on_inject ~params ~n:(Graph.n graph) ()
  in
  Step_kernel.run k ~steps:(w.Workload.horizon + cooldown)
    ~injections:(Step_kernel.injections_of w) source (Step_kernel.cached k graph cost);
  Step_kernel.finish k
