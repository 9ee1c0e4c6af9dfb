(** Per-destination packet buffers [Q_{v,d}] (paper Section 3.1).

    The balancing algorithm never inspects packet identity — only buffer
    heights — so buffers store counts.  The destination's own buffer
    [Q_{d,d}] is always empty: arrivals there are absorbed (delivered).

    State is flat struct-of-arrays: each node holds a sorted growable
    row of nonzero destinations, so memory is O(n + live buffers) and
    {!iter_nonzero} is a deterministic ascending-order traversal. *)

(** Generic sparse integer rows: per-row sorted (key, value) pairs in
    growable parallel int arrays, values never 0.  Reused by the
    quantized engine for advertised-height state. *)
module Sparse : sig
  type t

  val create : int -> t
  (** [create n] makes [n] empty rows. *)

  val size : t -> int
  (** Number of rows. *)

  val find : t -> int -> int -> int
  (** [find t v k] is the index of [k] in row [v] when present,
      otherwise [lnot insertion_point]. *)

  val get : t -> int -> int -> int
  (** [get t v k] is the value stored for [k] in row [v], or 0. *)

  val set : t -> int -> int -> int -> unit
  (** [set t v k x] stores [x]; storing 0 removes the entry. *)

  val update : t -> int -> int -> int -> int
  (** [update t v k delta] adds [delta] to the stored value (0 when
      absent), removes the entry if the result is 0, and returns the new
      value. *)

  val row_length : t -> int -> int
  (** Live entries in a row. *)

  val iter_row : t -> int -> (int -> int -> unit) -> unit
  (** [iter_row t v f] calls [f k x] for each live entry in ascending
      key order.  [f] must not mutate row [v]. *)

end

type t

val create : int -> t
(** [create n] makes empty buffers for [n] nodes (and [n] possible
    destinations). *)

val nodes : t -> int

val height : t -> int -> int -> int
(** [height t v d] is [h_{v,d}].  O(log live) binary search in [v]'s
    nonzero row. *)

val heights : t -> Sparse.t
(** The live height rows: [Sparse.get (heights t) v d = height t v d].
    Read-only; it changes as the buffers do. *)

val inject : t -> cap:int -> int -> int -> bool
(** [inject t ~cap src dest] adds a packet to [Q_{src,dest}] unless the
    buffer already holds [cap] packets ([false] = dropped) or
    [src = dest] (absorbed immediately, returns [true]). *)

val force_add : t -> int -> int -> unit
(** Adds a packet regardless of any cap (used for in-transit arrivals,
    which the algorithm never drops). *)

val remove : t -> int -> int -> unit
(** Removes one packet from [Q_{v,d}].  Requires a positive height. *)

val iter_nonzero : t -> int -> (int -> int -> unit) -> unit
(** [iter_nonzero t v f] calls [f d h] for every destination with
    [h = h_{v,d} > 0], in ascending destination order.  [f] must not
    mutate [v]'s buffers. *)

val total : t -> int
(** Total packets currently buffered. *)

val max_height : t -> int
(** Largest buffer height present.  O(1): tracked incrementally across
    adds and removes. *)

val set_watcher : t -> (int -> int -> unit) -> unit
(** [set_watcher t f] makes every height change call [f v d] (after the
    change is applied).  At most one watcher is active; setting a new one
    replaces the old.  The engines use this to maintain dirty-node sets
    for incremental decision caching. *)

val clear_watcher : t -> unit
