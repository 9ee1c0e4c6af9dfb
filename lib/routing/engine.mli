(** Discrete-time routing simulation driving the (T, γ)-balancing algorithm
    over a workload, in the paper's two layerings:

    - {!run_mac_given} — Scenario 1 (Theorem 3.1): each step the adversary
      hands the router a set of non-interfering active edges (the
      workload's activations, optionally padded with conflict-graph colour
      classes) and the router balances over them.
    - {!run_with_mac} — Scenarios 2 and 3 (Theorems 3.3 / 3.8): the router
      sees the whole topology, a {!Adhoc_mac.Mac.t} grants transmission
      attempts, and granted attempts that still interfere all fail (both
      packets stay, the transmission energy is spent).

    Every engine in this library runs one step kernel: decide each active
    edge on start-of-step heights, order the decisions (deliveries first,
    then descending gain), apply the sends, admit the injections.  The
    engines are configurations of it.  There are three active-set sources:
    the workload's activations, optionally padded (here and in
    {!Quantized_engine}); colour-class TDMA ({!Dynamic_engine}); and a MAC
    grant with its collision check ({!run_with_mac}).  There are two
    decision makers: per-edge decisions cached on true heights and static
    costs, and uncached per-edge decisions, for per-step costs
    ([cost_at]) or for the advertised heights of {!Quantized_engine}.
    A conflict structure passed to any engine must cover exactly its
    graph's edges; otherwise [Invalid_argument], before the first step. *)

type stats = Step_kernel.stats = {
  steps : int;
  injected : int;  (** admitted into source buffers *)
  dropped : int;  (** rejected by admission control (full source buffer) *)
  delivered : int;
  sends : int;  (** transmission attempts, successful or not *)
  failed_sends : int;  (** collided attempts (MAC scenarios only) *)
  total_cost : float;  (** cost of all attempts *)
  peak_height : int;  (** highest buffer height observed *)
  remaining : int;  (** packets still buffered at the end *)
}

val throughput_ratio : stats -> Workload.opt_stats -> float
(** [delivered / opt.deliveries].  [0.] when OPT delivered nothing: a run
    with no certified deliveries to compete against earns nothing, rather
    than a spuriously perfect ratio. *)

val cost_ratio : stats -> Workload.opt_stats -> float
(** Average cost per delivery relative to OPT's.  [Float.nan] when the run
    delivered nothing (or OPT's average cost is not positive): the ratio is
    undefined, and reporting [1.] would make a run that delivers nothing
    look perfect.  Bench tables render it as [n/a]. *)

val run_mac_given :
  ?cooldown:int ->
  ?obs:Adhoc_obs.sink ->
  ?pool:Adhoc_util.Pool.t ->
  ?on_step:(step:int -> delivered:int -> buffered:int -> unit) ->
  ?on_send:
    (step:int -> edge:int -> Balancing.decision -> [ `Delivered | `Moved ] -> unit) ->
  ?on_inject:(step:int -> src:int -> dst:int -> bool -> unit) ->
  ?cost_at:(step:int -> edge:int -> float) ->
  ?pad:Adhoc_interference.Conflict.t ->
  graph:Adhoc_graph.Graph.t ->
  cost:Adhoc_graph.Cost.t ->
  params:Balancing.params ->
  Workload.t ->
  stats
(** [on_step] fires after every simulated step with the cumulative delivery
    count and the packets currently buffered — the hook the time-series
    figures use.  [cost_at] lets the adversary change edge costs per step
    (Section 3.1: costs "may change from one step to another"); it
    overrides [cost] for both the balancing penalty and the accounting.
    [cooldown] extra steps after the horizon let in-flight packets drain;
    during them (and, padded, during the horizon) [pad]'s colour classes
    are activated round-robin, always keeping each step's active set
    non-interfering.  Default cooldown 0.

    [pool] fans the per-step decision computations out on the domain pool
    (decide-parallel / apply-sequential): decisions are functions of
    start-of-step heights only, and applications replay in the sequential
    order, so stats, events, traces and live telemetry are bit-identical
    for every pool size.  Static-cost runs only; the [cost_at] path stays
    sequential.

    [obs] turns on observability: phase spans ([engine/decide],
    [engine/apply]), end-of-run counters and gauges ([engine.*]), a
    per-step max-height histogram, and — when the sink carries a
    {!Adhoc_obs.Trace.t} — one trace sample per stride step.  When the
    sink carries an {!Adhoc_obs.Event.log}, every packet-level action is
    recorded into it ([Inject] per attempt, [Send] + [Deliver] per
    successful transmission, [Collide] per collided attempt) — the
    flight-recorder stream behind [adhoc_sim analyze] and
    {!Adhoc_obs.Invariants}.  With [None] (the default) every
    instrumentation site reduces to a single [match], keeping the hot
    path allocation-free and the stats bit-identical.

    [on_send] fires after each {e successful} (uncollided, non-empty)
    transmission with the applied decision and whether it delivered;
    [on_inject] fires per injection attempt with [true] when admitted.
    Together they let variants mirror the run's packet movements without
    duplicating the loop — {!Tracked_engine} is built on them. *)

val run_with_mac :
  ?cooldown:int ->
  ?obs:Adhoc_obs.sink ->
  ?pool:Adhoc_util.Pool.t ->
  ?on_step:(step:int -> delivered:int -> buffered:int -> unit) ->
  ?on_send:
    (step:int -> edge:int -> Balancing.decision -> [ `Delivered | `Moved ] -> unit) ->
  ?on_inject:(step:int -> src:int -> dst:int -> bool -> unit) ->
  ?collisions:Adhoc_interference.Conflict.t ->
  graph:Adhoc_graph.Graph.t ->
  cost:Adhoc_graph.Cost.t ->
  params:Balancing.params ->
  mac:Adhoc_mac.Mac.t ->
  Workload.t ->
  stats
(** The workload's activations are ignored: every edge is a candidate each
    step, the MAC arbitrates.  With [collisions], granted attempts that
    interfere with other granted attempts fail.  [obs], [pool], [on_send]
    and [on_inject] behave as in {!run_mac_given}; a sink additionally
    wraps the MAC with {!Adhoc_mac.Mac.instrument}, so arbitration gets
    its own [mac/<name>] span and request / grant counters. *)
