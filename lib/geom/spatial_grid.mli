(** Uniform bucket grid over an indexed point set, stored CSR-style.

    Answers "which points lie within distance [r] of here" in output-sensitive
    time; this is what keeps disk-graph construction and interference-set
    computation near-linear instead of quadratic for the node counts the
    experiments sweep.  Buckets are flat prefix-offset/id arrays with the
    point coordinates mirrored in bucket order, so range queries stream over
    contiguous unboxed floats. *)

type t

val build : cell:float -> Point.t array -> t
(** [build ~cell points] hashes each point index into a square cell of side
    [cell].  Requires [cell > 0].  An empty array yields a valid empty grid
    on which every query returns its zero result.  Point [i] of the array
    keeps index [i] in all query answers. *)

val build_indexed : cell:float -> Point.t array -> int array -> t
(** [build_indexed ~cell points ids] builds a grid over the subset
    [points.(ids.(0)), points.(ids.(1)), ...] only; query answers use the
    values stored in [ids] (the caller's original indices).  [ids] must be
    duplicate-free and each entry must index into [points].  Used for
    per-tile shard grids that answer with global node ids. *)

val cell_size : t -> float

val length : t -> int
(** Number of points stored in the grid. *)

val fold_within : t -> Point.t -> float -> init:'a -> f:('a -> int -> 'a) -> 'a
(** [fold_within g p r ~init ~f] folds [f] over the indices of all points at
    Euclidean distance ≤ [r] from [p] (including a point equal to [p] if
    present).  Membership is decided by exactly
    [(dx *. dx) +. (dy *. dy) <= r *. r] with [dx = q.x -. p.x] and
    [dy = q.y -. p.y] for a stored point [q], so a caller that repeats this
    expression agrees with the query bit for bit. *)

val iter_within : t -> Point.t -> float -> (int -> unit) -> unit

val indices_within : t -> Point.t -> float -> int list
(** Indices within distance [r], unordered. *)

val nearest_other : t -> int -> int option
(** [nearest_other g i] is the index of the nearest point distinct from
    point [i] (ties broken by lower index), or [None] when the set has a
    single point.  Searches outward ring by ring.  [i] must be an id the
    grid was built over. *)
