(** Interference sets, the interference number, and the conflict graph of a
    topology (paper Section 2.4, following Meyer auf der Heide et al.).

    [I(e) = { e' | e' interferes with e, or vice versa }]; the interference
    number of the graph is [max_e |I(e)|].  The conflict graph has one
    vertex per topology edge and joins interfering pairs; independent sets
    of the conflict graph are exactly the concurrently usable edge sets. *)

type t = {
  model : Model.t;
  sets : int array array;
      (** [sets.(e)] = interference set of edge [e], excluding [e] itself,
          in ascending edge-id order.  Treat as read-only. *)
}

val build :
  ?pool:Adhoc_util.Pool.t -> Model.t -> points:Adhoc_geom.Point.t array -> Adhoc_graph.Graph.t -> t
(** Grid-accelerated and output-sensitive.  Each edge [e = (u,v)] gets
    the key [(r_e², e)] with [r_e = (1+Δ)·|uv|] measured on [points] —
    the lengths the graph stores are never read.  Two edges interfere iff
    their closest endpoint pair is nearer than the larger of their two
    radii, so every interfering pair is discovered exactly once, from its
    larger-key edge, by searching that edge's own radius around [u] and
    [v].  A candidate reached through several endpoint pairs is kept only
    at the first of [(u,a), (u,b), (v,a), (v,b)] inside the search ball,
    so no dedup set or shared mark array is needed.  Cost is
    O(Σ candidates) — the edges incident to nodes inside each edge's
    search balls — plus O(m + Σ|I(e)|) to assemble the rows.

    Memory: besides the output ([Σ|I(e)|] ids), one id per interfering
    pair (each pair's discovery, held until assembly), O(n + m) floats and
    counters, and one merge buffer of [max_e |I(e)|] ids.

    [?pool] parallelizes the per-edge discovery; the symmetric assembly
    runs sequentially, so [sets] is bit-identical for every pool size and
    to {!build_brute}. *)

val build_brute :
  Model.t -> points:Adhoc_geom.Point.t array -> Adhoc_graph.Graph.t -> t
(** O(m²) reference implementation (test oracle). *)

val interference_number : t -> int
(** [max_e |I(e)|]; [0] for graphs with fewer than two edges. *)

val set_sizes : t -> int array

val neighborhood_bounds : t -> int array
(** [Iₑ] per edge as Section 3.3 defines it: an upper bound on the
    interference-set size of every edge that [e] interferes with (and of [e]
    itself).  Activating each edge with probability [1/(2Iₑ)] then bounds
    its collision probability by 1/2 (Lemma 3.2): for [e' ∈ I(e)] we have
    [e ∈ I(e')], hence [Iₑ' >= |I(e)|] and the union bound telescopes. *)

val interfere : t -> int -> int -> bool
(** Membership in each other's interference sets (by edge id): a binary
    search over [e]'s ascending row, O(log |I(e)|). *)

val adjacency : t -> int array array
(** The interference sets as arrays, indexable per edge (the internal
    [sets], not a copy — treat as read-only).  The routing engines and
    MACs use this so that collision checks walk an edge's interference
    neighbourhood instead of scanning the whole active set. *)

val greedy_coloring : t -> int array * int
(** Colours the conflict graph greedily in edge-id order; returns the
    colour per edge and the number of colours used (≤ interference number
    + 1).  Each colour class is interference-free — a valid MAC schedule.
    The taken-colour scan stamps a reusable mark array, so the whole pass
    is O(m·Δ) with no per-edge allocation. *)

val independent : t -> int list -> bool
(** Whether the given edge ids are pairwise non-interfering. *)

val max_independent_greedy : t -> int list -> int list
(** Greedy maximal independent subset of the given candidate edges
    (ascending id order) — an idealised MAC decision. *)
