(** Balancing with reduced control traffic.

    The paper remarks (Section 3.2) that "in a practical implementation, we
    can reduce the amount of control information exchange" needed for
    neighbours to learn each other's buffer heights, deferring details to
    the full version.  This module implements the natural scheme: every
    node advertises a height only when it has drifted by more than a
    quantum [q] from the last advertised value, and neighbours balance
    against the *advertised* heights.

    With [q = 0] the behaviour (and delivery count) is identical to
    {!Engine.run_mac_given}; growing [q] trades control messages for
    gradient staleness — experiment E19 measures the curve.  Stale heights
    cannot violate safety (sends still check real buffer occupancy); they
    only delay or misdirect sends by at most [q] per hop, which the
    threshold [T] absorbs once [T > 2q]. *)

type stats = {
  base : Engine.stats;
  control_messages : int;
      (** height advertisements broadcast (one per node per change beyond
          the quantum) *)
  full_exchange_messages : int;
      (** what continuous per-step exchange would have cost:
          steps × nodes *)
}

val run_mac_given :
  ?cooldown:int ->
  ?obs:Adhoc_obs.sink ->
  ?pool:Adhoc_util.Pool.t ->
  ?pad:Adhoc_interference.Conflict.t ->
  quantum:int ->
  graph:Adhoc_graph.Graph.t ->
  cost:Adhoc_graph.Cost.t ->
  params:Balancing.params ->
  Workload.t ->
  stats
(** Requires [quantum >= 0].

    The step is {!Engine.run_mac_given}'s, with one change: a sender
    decides against its neighbour's advertised heights.  [pad], [obs] and
    [pool] behave as there.  In addition, [obs] gets an [engine/advertise]
    span around each advertisement phase, a [quantized.control_messages]
    counter, and one [Height_advert] event per announcing node when the
    sink carries an event log. *)
