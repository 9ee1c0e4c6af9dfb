(** Routing over a *changing* topology — the dynamics of the paper's
    adversarial model made concrete: the network is a sequence of epochs
    (e.g. snapshots of a mobile deployment), buffers persist across epochs,
    and the (T, γ)-balancing rule keeps operating on whatever edges the
    current epoch offers.

    Within an epoch, edges are activated by colour classes of the epoch's
    conflict structure (an interference-free TDMA MAC), so each step's
    active set is valid under the guard-zone model.  Because certifying an
    optimal schedule across adversarial topology changes is exactly the
    intractable OPT, this engine reports absolute delivery metrics rather
    than competitive ratios. *)

type epoch = {
  graph : Adhoc_graph.Graph.t;  (** topology for this epoch; same node count throughout *)
  conflict : Adhoc_interference.Conflict.t;
  steps : int;
}

val epoch_of_points :
  ?delta:float ->
  ?theta:float ->
  ?range_factor:float ->
  steps:int ->
  Adhoc_geom.Point.t array ->
  epoch
(** Convenience: ΘALG overlay + conflict structure for one snapshot
    (defaults: Δ = 0.5, θ = π/6, range = 1.5 × connectivity threshold). *)

val run :
  ?obs:Adhoc_obs.sink ->
  ?pool:Adhoc_util.Pool.t ->
  epochs:epoch list ->
  injections:(int -> (int * int) list) ->
  cost:Adhoc_graph.Cost.t ->
  params:Balancing.params ->
  unit ->
  Engine.stats
(** [injections t] gives the (src, dest) packets injected at global step
    [t]; steps count across all epochs.  Packets buffered at a node whose
    current epoch offers no useful edge simply wait — exactly the paper's
    model, where progress resumes whenever the adversary re-enables a
    path.

    [obs] and [pool] behave as in {!Engine.run_mac_given}, whose step
    kernel this engine runs with colour-class TDMA as its active-set
    source.  An attached event log also gets one [Epoch_change] per
    epoch, at the global step it starts. *)
