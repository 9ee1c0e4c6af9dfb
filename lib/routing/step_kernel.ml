module Graph = Adhoc_graph.Graph
module Conflict = Adhoc_interference.Conflict
module Mac = Adhoc_mac.Mac
module Pool = Adhoc_util.Pool
module Event = Adhoc_obs.Event
module Metrics = Adhoc_obs.Metrics
module Sparse = Buffers.Sparse

type stats = {
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

type t = {
  buffers : Buffers.t;
  params : Balancing.params;
  pool : Pool.t option;
  obs : Adhoc_obs.sink option;
  events : Event.log option;
  height_hist : Metrics.histogram option;
  on_step : (step:int -> delivered:int -> buffered:int -> unit) option;
  on_send :
    (step:int -> edge:int -> Balancing.decision -> [ `Delivered | `Moved ] -> unit) option;
  on_inject : (step:int -> src:int -> dst:int -> bool -> unit) option;
  mutable clock : int;
  mutable live : int;  (* the current step's active-edge count *)
  mutable injected : int;
  mutable dropped : int;
  mutable delivered : int;
  mutable sends : int;
  mutable failed_sends : int;
  mutable total_cost : float;
  mutable peak_height : int;
  (* The totals as of the previous trace sample, so each sample carries the
     deltas over its stride window and no event is lost between recorded
     steps. *)
  mutable sampled : stats;
}

let height_buckets = [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. |]

let create ?obs ?pool ?on_step ?on_send ?on_inject ~params ~n () =
  let height_hist =
    match obs with
    | None -> None
    | Some o ->
        Some
          (Metrics.histogram o.Adhoc_obs.metrics "engine.step_max_height"
             ~buckets:height_buckets)
  in
  {
    buffers = Buffers.create n;
    params;
    pool;
    obs;
    events = Adhoc_obs.events obs;
    height_hist;
    on_step;
    on_send;
    on_inject;
    clock = 0;
    live = 0;
    injected = 0;
    dropped = 0;
    delivered = 0;
    sends = 0;
    failed_sends = 0;
    total_cost = 0.;
    peak_height = 0;
    sampled =
      {
        steps = 0;
        injected = 0;
        dropped = 0;
        delivered = 0;
        sends = 0;
        failed_sends = 0;
        total_cost = 0.;
        peak_height = 0;
        remaining = 0;
      };
  }

let snapshot k : stats =
  {
    steps = k.clock;
    injected = k.injected;
    dropped = k.dropped;
    delivered = k.delivered;
    sends = k.sends;
    failed_sends = k.failed_sends;
    total_cost = k.total_cost;
    peak_height = k.peak_height;
    remaining = Buffers.total k.buffers;
  }

let buffers k = k.buffers
let now k = k.clock

(* ------------------------------------------------------------------ *)
(* Active-set sources.                                                 *)

let check_conflict ~entry graph conflict =
  let covered = Array.length conflict.Conflict.sets and m = Graph.num_edges graph in
  if covered <> m then
    invalid_arg
      (Printf.sprintf "%s: the conflict structure covers %d edges but the graph has %d"
         entry covered m)

(* Colour classes of a greedy colouring, one row per colour, each in
   ascending or descending edge id. *)
let colour_classes ~descending conflict =
  let colors, k = Conflict.greedy_coloring conflict in
  let m = Array.length colors in
  let classes = Array.make k [] in
  for i = 0 to m - 1 do
    (* Consing reverses the visiting order. *)
    let e = if descending then i else m - 1 - i in
    classes.(colors.(e)) <- e :: classes.(colors.(e))
  done;
  Array.map Array.of_list classes

(* Colour-class padding: the classes and the conflict adjacency are
   precomputed once per run; per step, membership in the activation and
   interference with it are checked against scratch marks. *)
type pad = {
  adj : int array array;
  pad_classes : int array array;  (* ascending edge ids *)
  in_base : bool array;  (* cleared after each step *)
}

type source =
  | Activations of { w : Workload.t; pad : pad option; scratch : int array }
  | Classes of int array array
  | Granted of {
      mac : Mac.t;
      collisions : int array array option;  (* conflict adjacency *)
      marks : bool array;  (* granted edges, while the step applies *)
      all_edges : int array;
    }

let padding ~entry graph conflict =
  check_conflict ~entry graph conflict;
  {
    adj = Conflict.adjacency conflict;
    pad_classes = colour_classes ~descending:false conflict;
    in_base = Array.make (Graph.num_edges graph) false;
  }

let activations ~entry graph ?pad w =
  let scratch = Array.make (max (Graph.num_edges graph) 1) 0 in
  Activations { w; pad = Option.map (padding ~entry graph) pad; scratch }

let classes ~entry graph conflict =
  check_conflict ~entry graph conflict;
  Classes (colour_classes ~descending:true conflict)

let granted ~entry graph ?collisions mac =
  let m = Graph.num_edges graph in
  Option.iter (check_conflict ~entry graph) collisions;
  Granted
    {
      mac;
      collisions = Option.map Conflict.adjacency collisions;
      marks = Array.make m false;
      all_edges = Array.init m Fun.id;
    }

(* Whether a marked edge is in [e]'s interference set (which never
   contains [e] itself). *)
let rec marked_from marks row i =
  i < Array.length row && (marks.(row.(i)) || marked_from marks row (i + 1))

let interferes adj marks e = marked_from marks adj.(e) 0

let rec copy_into into i = function
  | [] -> i
  | e :: rest ->
      into.(i) <- e;
      copy_into into (i + 1) rest

let rec set_marks marks v edge_of = function
  | [] -> ()
  | x :: rest ->
      marks.(edge_of x) <- v;
      set_marks marks v edge_of rest

(* [base] plus the step's colour class, minus the class edges already in
   [base] or interfering with it, written to [into]; returns the count. *)
let fill_padded p ~step ~into base =
  let k = ref (copy_into into 0 base) in
  set_marks p.in_base true Fun.id base;
  let num_classes = Array.length p.pad_classes in
  if num_classes > 0 then begin
    let cls = p.pad_classes.(step mod num_classes) in
    for j = 0 to Array.length cls - 1 do
      let id = cls.(j) in
      if (not p.in_base.(id)) && not (interferes p.adj p.in_base id) then begin
        into.(!k) <- id;
        incr k
      end
    done
  end;
  set_marks p.in_base false Fun.id base;
  !k

(* The step's active edges; their count goes to [k.live]. *)
let active k source ~step =
  match source with
  | Activations { w; pad; scratch } ->
      let base = if step < w.Workload.horizon then w.Workload.activations.(step) else [] in
      k.live <-
        (match pad with
        | Some p -> fill_padded p ~step ~into:scratch base
        | None -> copy_into scratch 0 base);
      scratch
  | Classes cls ->
      let act = if Array.length cls = 0 then [||] else cls.(step mod Array.length cls) in
      k.live <- Array.length act;
      act
  | Granted g ->
      k.live <- Array.length g.all_edges;
      g.all_edges

let collided source e =
  match source with
  | Granted { collisions = Some adj; marks; _ } -> interferes adj marks e
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Decision makers.

   A decision over an edge is [Balancing.best_toward] in each direction.
   Cached: on true heights and static costs it depends only on the heights
   at the edge's two endpoints, and its argmax is order-independent, so a
   cached decision stays exact until a height at either endpoint changes.
   A watcher on the buffers collects the nodes whose heights changed; the
   flush at the start of each step invalidates only the edges incident to
   them.  Uncached: per-step costs or advertised heights, so every active
   edge is decided afresh each step. *)

type decider = {
  graph : Graph.t;
  owner : t;
  seen : Sparse.t;  (* the receiver heights a sender balances against *)
  cost_at : (step:int -> edge:int -> float) option;  (* [None]: cached *)
  edge_cost : float array;  (* static; uncached, the step's, set in [prepare] *)
  fwd : Balancing.decision option array;  (* u -> v, by edge id *)
  bwd : Balancing.decision option array;  (* v -> u *)
  valid : bool array;
  mutable dirty : int list;  (* nodes whose heights changed since the flush *)
  node_dirty : bool array;
}

let make_decider k graph ~seen ~cost_at ~edge_cost =
  let m = Graph.num_edges graph in
  {
    graph;
    owner = k;
    seen;
    cost_at;
    edge_cost;
    fwd = Array.make m None;
    bwd = Array.make m None;
    valid = Array.make m false;
    dirty = [];
    node_dirty = Array.make (Graph.n graph) false;
  }

let static_costs graph cost =
  Array.init (Graph.num_edges graph) (fun e -> cost (Graph.length graph e))

let cached k graph cost =
  let edge_cost = static_costs graph cost in
  let d = make_decider k graph ~seen:(Buffers.heights k.buffers) ~cost_at:None ~edge_cost in
  Buffers.set_watcher k.buffers (fun v _d ->
      if not d.node_dirty.(v) then begin
        d.node_dirty.(v) <- true;
        d.dirty <- v :: d.dirty
      end);
  d

let uncached k graph ?advertised cost_at =
  let seen = match advertised with Some a -> a | None -> Buffers.heights k.buffers in
  make_decider k graph ~seen ~cost_at:(Some cost_at)
    ~edge_cost:(Array.make (Graph.num_edges graph) 0.)

let refresh d e =
  let u, v = Graph.endpoints d.graph e in
  let k = d.owner and seen = d.seen and cost = d.edge_cost.(e) in
  d.fwd.(e) <- Balancing.best_toward_seen k.buffers k.params ~seen ~cost ~src:u ~dst:v;
  d.bwd.(e) <- Balancing.best_toward_seen k.buffers k.params ~seen ~cost ~src:v ~dst:u;
  d.valid.(e) <- true

let[@inline] decide d e = if not d.valid.(e) then refresh d e

(* Invalidates the decisions the last step may have made stale: cached,
   the edges around changed nodes; uncached, every active edge, whose cost
   for this step is taken here, on the calling domain.  With a pool, the
   invalid active decisions are then refreshed on it (without one,
   lookups refresh lazily).  Each task reads start-of-step heights and
   writes only its own edge's cells, so the decisions are bit-identical
   for every pool size. *)
let prepare ?pool d ~step act ~count =
  (match d.cost_at with
  | None ->
      List.iter
        (fun v ->
          d.node_dirty.(v) <- false;
          Graph.iter_neighbors d.graph v (fun _ id -> d.valid.(id) <- false))
        d.dirty;
      d.dirty <- []
  | Some f ->
      for i = 0 to count - 1 do
        let e = act.(i) in
        d.edge_cost.(e) <- f ~step ~edge:e;
        d.valid.(e) <- false
      done);
  match pool with
  | None -> ()
  | Some p ->
      Pool.parallel_for p ~label:"engine/decide" count (fun i -> decide d act.(i))

(* The better direction, ties to u -> v, as in {!Balancing.best_either}.
   [decide] and [either] are inlined: the MAC path's request scan runs
   them for every edge at every step, and as calls they slowed it
   measurably. *)
let[@inline] either d e =
  decide d e;
  match (d.fwd.(e), d.bwd.(e)) with
  | None, x | x, None -> x
  | (Some f as f'), (Some b as b') -> if b.Balancing.gain > f.Balancing.gain then b' else f'

(* ------------------------------------------------------------------ *)
(* Decide, order, apply, inject.                                       *)

(* Both directions of every active edge, in active order. *)
let listed d act count =
  let acc = ref [] in
  for i = count - 1 downto 0 do
    let e = act.(i) in
    decide d e;
    (match d.bwd.(e) with Some b -> acc := (e, b) :: !acc | None -> ());
    match d.fwd.(e) with Some a -> acc := (e, a) :: !acc | None -> ()
  done;
  !acc

let requests d act count =
  let acc = ref [] in
  for i = count - 1 downto 0 do
    let e = act.(i) in
    match either d e with
    | None -> ()
    | Some x ->
        acc := { Mac.edge = e; sender = x.Balancing.src; benefit = x.Balancing.gain } :: !acc
  done;
  !acc

(* Each granted request with the decision it was made for. *)
let rec granted_decisions d = function
  | [] -> []
  | (r : Mac.request) :: rest -> (
      match either d r.Mac.edge with
      | None -> granted_decisions d rest
      | Some x -> (r.Mac.edge, x) :: granted_decisions d rest)

(* When several simultaneous decisions contend for the same source buffer,
   application order decides who wins.  Deliveries first, then larger
   gains: both strictly decrease the system's potential, and this prevents
   a lone packet from being bounced backwards past a pending delivery. *)
let application_order (_, (a : Balancing.decision)) (_, (b : Balancing.decision)) =
  let delivers d = d.Balancing.dst = d.Balancing.dest in
  match (delivers a, delivers b) with
  | true, false -> -1
  | false, true -> 1
  | _ -> Float.compare b.Balancing.gain a.Balancing.gain

(* Decisions are taken on start-of-step heights (the paper's rule is
   simultaneous across edges); application checks that the source buffer
   still holds a packet, since several edges may have decided to drain the
   same buffer.  An unavailable send does not transmit and costs nothing;
   a collided one costs and moves nothing. *)
let attempt_send k ~step decider ~edge (d : Balancing.decision) ~collided =
  if Buffers.height k.buffers d.Balancing.src d.Balancing.dest > 0 then begin
    let cost = decider.edge_cost.(edge) in
    k.sends <- k.sends + 1;
    k.total_cost <- k.total_cost +. cost;
    if collided then begin
      k.failed_sends <- k.failed_sends + 1;
      match k.events with
      | None -> ()
      | Some log ->
          Event.collide log ~step ~edge ~src:d.Balancing.src ~dst:d.Balancing.dst
            ~dest:d.Balancing.dest ~cost
    end
    else begin
      let outcome = Balancing.apply k.buffers d in
      (match outcome with
      | `Delivered -> k.delivered <- k.delivered + 1
      | `Moved ->
          k.peak_height <-
            max k.peak_height (Buffers.height k.buffers d.Balancing.dst d.Balancing.dest));
      (match k.events with
      | None -> ()
      | Some log -> (
          Event.send log ~step ~edge ~src:d.Balancing.src ~dst:d.Balancing.dst
            ~dest:d.Balancing.dest ~cost
            ~outcome:(match outcome with `Delivered -> Event.Delivered | `Moved -> Event.Moved);
          match outcome with
          | `Delivered -> Event.deliver log ~step ~dst:d.Balancing.dest ~self:false
          | `Moved -> ()));
      match k.on_send with None -> () | Some f -> f ~step ~edge d outcome
    end
  end

let rec apply_all k ~step d source = function
  | [] -> ()
  | (e, x) :: rest ->
      attempt_send k ~step d ~edge:e x ~collided:(collided source e);
      apply_all k ~step d source rest

let inject k ~step src dst =
  let admitted = Buffers.inject k.buffers ~cap:k.params.Balancing.capacity src dst in
  if admitted then begin
    k.injected <- k.injected + 1;
    (match k.events with
    | None -> ()
    | Some log ->
        Event.inject log ~step ~src ~dst ~admitted;
        if src = dst then Event.deliver log ~step ~dst ~self:true);
    (* A packet injected at its destination is absorbed immediately. *)
    if src = dst then k.delivered <- k.delivered + 1
    else k.peak_height <- max k.peak_height (Buffers.height k.buffers src dst)
  end
  else begin
    k.dropped <- k.dropped + 1;
    match k.events with None -> () | Some log -> Event.inject log ~step ~src ~dst ~admitted
  end;
  match k.on_inject with None -> () | Some f -> f ~step ~src ~dst admitted

let rec inject_all k ~step = function
  | [] -> ()
  | (src, dst) :: rest ->
      inject k ~step src dst;
      inject_all k ~step rest

(* Every instrumentation site is a single [match] on the optional sink, so
   a run without one stays allocation-free on the hot path and
   bit-identical in behaviour (pinned by test). *)
let span_enter k label =
  match k.obs with None -> () | Some o -> Adhoc_obs.Span.enter o.Adhoc_obs.spans label

let span_leave k = match k.obs with None -> () | Some o -> Adhoc_obs.Span.leave o.Adhoc_obs.spans

let sample k ~step =
  (match k.height_hist with
  | None -> ()
  | Some h -> Metrics.observe h (float_of_int (Buffers.max_height k.buffers)));
  (match k.obs with
  | Some { Adhoc_obs.trace = Some tr; _ } when Adhoc_obs.Trace.wants tr ~step ->
      let buffered = Buffers.total k.buffers in
      Adhoc_obs.Trace.record tr
        {
          Adhoc_obs.Trace.step;
          buffered;
          max_height = Buffers.max_height k.buffers;
          mean_height = float_of_int buffered /. float_of_int (Buffers.nodes k.buffers);
          injected = k.injected - k.sampled.injected;
          delivered = k.delivered - k.sampled.delivered;
          dropped = k.dropped - k.sampled.dropped;
          sends = k.sends - k.sampled.sends;
          failed_sends = k.failed_sends - k.sampled.failed_sends;
          active_edges = k.live;
        };
      k.sampled <- snapshot k
  | _ -> ());
  match k.on_step with
  | Some f -> f ~step ~delivered:k.delivered ~buffered:(Buffers.total k.buffers)
  | None -> ()

(* The one routing step. *)
let step k ~injections source d =
  let step = k.clock in
  let act = active k source ~step in
  span_enter k "engine/decide";
  prepare ?pool:k.pool d ~step act ~count:k.live;
  let ordered =
    match source with
    | Granted g ->
        let requests = requests d act k.live in
        span_leave k;
        let granted = g.mac.Mac.select ~step requests in
        span_enter k "engine/apply";
        k.live <- List.length granted;
        (* A MAC grants a subset of the requests, so every granted edge
           has a decision and gets marked. *)
        let ordered = List.stable_sort application_order (granted_decisions d granted) in
        set_marks g.marks true fst ordered;
        ordered
    | Activations _ | Classes _ ->
        let ordered = List.stable_sort application_order (listed d act k.live) in
        span_leave k;
        span_enter k "engine/apply";
        ordered
  in
  apply_all k ~step d source ordered;
  (match source with
  | Granted g -> set_marks g.marks false fst ordered
  | Activations _ | Classes _ -> ());
  inject_all k ~step (injections step);
  span_leave k;
  sample k ~step;
  k.clock <- step + 1

let injections_of (w : Workload.t) t =
  if t < w.Workload.horizon then w.Workload.injections.(t) else []

let run ?advertise k ~steps ~injections source d =
  for _ = 1 to steps do
    (match advertise with
    | None -> ()
    | Some f ->
        span_enter k "engine/advertise";
        f k.clock;
        span_leave k);
    step k ~injections source d
  done

let finish k =
  let s = snapshot k in
  (match k.obs with
  | None -> ()
  | Some o ->
      let m = o.Adhoc_obs.metrics in
      let count name v = Metrics.add (Metrics.counter m name) v in
      let gauge name v = Metrics.set (Metrics.gauge m name) v in
      count "engine.steps" s.steps;
      count "engine.injected" s.injected;
      count "engine.dropped" s.dropped;
      count "engine.delivered" s.delivered;
      count "engine.sends" s.sends;
      count "engine.failed_sends" s.failed_sends;
      gauge "engine.total_cost" s.total_cost;
      gauge "engine.peak_height" (float_of_int s.peak_height);
      gauge "engine.remaining" (float_of_int s.remaining));
  s
