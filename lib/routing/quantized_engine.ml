module Graph = Adhoc_graph.Graph
module Event = Adhoc_obs.Event
module Sparse = Buffers.Sparse

type stats = {
  base : Engine.stats;
  control_messages : int;
  full_exchange_messages : int;
}

let run_mac_given ?(cooldown = 0) ?obs ?pool ?pad ~quantum ~graph ~cost ~params
    (w : Workload.t) =
  if quantum < 0 then invalid_arg "Quantized_engine.run_mac_given: negative quantum";
  let source = Step_kernel.activations ~entry:"Quantized_engine.run_mac_given" graph ?pad w in
  let n = Graph.n graph in
  let k = Step_kernel.create ?obs ?pool ~params ~n () in
  let buffers = Step_kernel.buffers k in
  let events = Adhoc_obs.events obs in
  (* Advertised heights: what neighbours believe about each buffer.  Sparse
     rows (nonzero advertisements only), so memory stays O(n + live). *)
  let advertised = Sparse.create n in
  let control = ref 0 in
  (* A cell can only drift past the quantum if its true height changed
     since it was last checked, so the advertisement phase needs to look at
     changed cells only.  The dedup marker is sparse too (1 = queued). *)
  let cell_dirty = Sparse.create n in
  let dirty_cells = ref [] in
  Buffers.set_watcher buffers (fun v d ->
      if Sparse.get cell_dirty v d = 0 then begin
        Sparse.set cell_dirty v d 1;
        dirty_cells := (v, d) :: !dirty_cells
      end);
  let node_changed = Array.make n false in
  (* One broadcast per node whose heights drifted beyond the quantum since
     last advertised. *)
  let advertise t =
    let announced = ref 0 in
    List.iter
      (fun (v, d) ->
        Sparse.set cell_dirty v d 0;
        let h = Buffers.height buffers v d in
        if abs (h - Sparse.get advertised v d) > quantum then begin
          Sparse.set advertised v d h;
          if not node_changed.(v) then begin
            node_changed.(v) <- true;
            incr announced;
            match events with
            | None -> ()
            | Some log -> Event.height_advert log ~step:t ~node:v
          end
        end)
      !dirty_cells;
    if !announced > 0 then begin
      control := !control + !announced;
      List.iter (fun (v, _) -> node_changed.(v) <- false) !dirty_cells
    end;
    dirty_cells := []
  in
  (* The sender knows its own buffers exactly but sees only the advertised
     heights of its neighbour. *)
  let edge_cost = Step_kernel.static_costs graph cost in
  let decider =
    Step_kernel.uncached k graph ~advertised (fun ~step:_ ~edge -> edge_cost.(edge))
  in
  let steps = w.Workload.horizon + cooldown in
  Step_kernel.run ~advertise k ~steps ~injections:(Step_kernel.injections_of w) source decider;
  let base = Step_kernel.finish k in
  (match obs with
  | None -> ()
  | Some o ->
      Adhoc_obs.Metrics.add
        (Adhoc_obs.Metrics.counter o.Adhoc_obs.metrics "quantized.control_messages")
        !control);
  { base; control_messages = !control; full_exchange_messages = steps * n }
