(** The routing step, written once; private to this library.

    Each step decides every active edge on start-of-step heights, orders
    the decisions (deliveries first, then descending gain), applies the
    sends and admits the injections.  The engines are configurations of
    it: a {!source} says where each step's active edges come from, a
    {!decider} which heights and costs a sender decides on. *)

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

type t
(** One run: buffers, counters, observability state and hooks.  Steps are
    numbered from 0 across every {!run} on it. *)

val create :
  ?obs:Adhoc_obs.sink ->
  ?pool:Adhoc_util.Pool.t ->
  ?on_step:(step:int -> delivered:int -> buffered:int -> unit) ->
  ?on_send:
    (step:int -> edge:int -> Balancing.decision -> [ `Delivered | `Moved ] -> unit) ->
  ?on_inject:(step:int -> src:int -> dst:int -> bool -> unit) ->
  params:Balancing.params ->
  n:int ->
  unit ->
  t
(** Arguments as in {!Engine.run_mac_given}; [pool] fans out the decide
    phase. *)

val buffers : t -> Buffers.t

val now : t -> int
(** The index of the next step. *)

type source
(** The constructors raise [Invalid_argument], naming [entry] and both
    edge counts, when a conflict structure does not cover exactly the
    graph's edges. *)

val activations :
  entry:string ->
  Adhoc_graph.Graph.t ->
  ?pad:Adhoc_interference.Conflict.t ->
  Workload.t ->
  source
(** The workload's activations, none after its horizon; [pad] adds the
    step's colour class minus the edges that repeat or interfere with the
    activation, in ascending edge id. *)

val classes : entry:string -> Adhoc_graph.Graph.t -> Adhoc_interference.Conflict.t -> source
(** Step [t] activates colour class [t mod k], in descending edge id. *)

val granted :
  entry:string ->
  Adhoc_graph.Graph.t ->
  ?collisions:Adhoc_interference.Conflict.t ->
  Adhoc_mac.Mac.t ->
  source
(** Every edge with a prospective send requests, the MAC grants; with
    [collisions], a granted send that interferes with another granted one
    costs and moves nothing. *)

type decider

val cached : t -> Adhoc_graph.Graph.t -> Adhoc_graph.Cost.t -> decider
(** True heights, static costs; decisions cached per edge until a height
    at an endpoint changes (replaces the buffers' watcher). *)

val uncached :
  t ->
  Adhoc_graph.Graph.t ->
  ?advertised:Buffers.Sparse.t ->
  (step:int -> edge:int -> float) ->
  decider
(** Every active edge decided afresh each step at the given cost, which is
    also what the send is charged.  With [advertised], the receiver's
    heights are read from it. *)

val static_costs : Adhoc_graph.Graph.t -> Adhoc_graph.Cost.t -> float array
val injections_of : Workload.t -> int -> (int * int) list

val run :
  ?advertise:(int -> unit) ->
  t ->
  steps:int ->
  injections:(int -> (int * int) list) ->
  source ->
  decider ->
  unit
(** [steps] more steps; [advertise] opens each under [engine/advertise]. *)

val finish : t -> stats
(** With a sink, also adds the stats to its metrics ([engine.*]). *)
