(* Flat struct-of-arrays buffer state.  Per-node sorted nonzero
   destination rows (growable parallel int arrays, CSR-style) replace
   the former dense n×n matrix + per-node hashtables: memory is
   O(n + live buffers) and [iter_nonzero] visits destinations in
   ascending order, so traversal is deterministic by construction and
   needs no hashtbl-order waiver. *)

module Sparse = struct
  type t = {
    key : int array array;  (* row v: strictly ascending, first len.(v) live *)
    value : int array array;  (* value.(v).(i) belongs to key.(v).(i); never 0 *)
    len : int array;
  }

  let create n =
    { key = Array.make n [||]; value = Array.make n [||]; len = Array.make n 0 }

  let size t = Array.length t.len

  (* Lower-bound binary search for [k] in row [v]: its index when
     present, otherwise [lnot insertion_point]. *)
  let find t v k =
    let keys = t.key.(v) in
    let lo = ref 0 and hi = ref t.len.(v) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if keys.(mid) < k then lo := mid + 1 else hi := mid
    done;
    if !lo < t.len.(v) && keys.(!lo) = k then !lo else lnot !lo

  let get t v k =
    let i = find t v k in
    if i >= 0 then t.value.(v).(i) else 0

  let insert_at t v i k x =
    let len = t.len.(v) in
    let keys = t.key.(v) and vals = t.value.(v) in
    if len = Array.length keys then begin
      let cap = if len = 0 then 4 else 2 * len in
      let keys' = Array.make cap 0 and vals' = Array.make cap 0 in
      Array.blit keys 0 keys' 0 i;
      Array.blit vals 0 vals' 0 i;
      Array.blit keys i keys' (i + 1) (len - i);
      Array.blit vals i vals' (i + 1) (len - i);
      t.key.(v) <- keys';
      t.value.(v) <- vals'
    end
    else begin
      Array.blit keys i keys (i + 1) (len - i);
      Array.blit vals i vals (i + 1) (len - i)
    end;
    t.key.(v).(i) <- k;
    t.value.(v).(i) <- x;
    t.len.(v) <- len + 1

  let remove_at t v i =
    let len = t.len.(v) in
    Array.blit t.key.(v) (i + 1) t.key.(v) i (len - i - 1);
    Array.blit t.value.(v) (i + 1) t.value.(v) i (len - i - 1);
    t.len.(v) <- len - 1

  let set t v k x =
    let i = find t v k in
    if i >= 0 then begin
      if x = 0 then remove_at t v i else t.value.(v).(i) <- x
    end
    else if x <> 0 then insert_at t v (lnot i) k x

  let update t v k delta =
    let i = find t v k in
    if i >= 0 then begin
      let x = t.value.(v).(i) + delta in
      if x = 0 then remove_at t v i else t.value.(v).(i) <- x;
      x
    end
    else begin
      if delta <> 0 then insert_at t v (lnot i) k delta;
      delta
    end

  let row_length t v = t.len.(v)

  let iter_row t v f =
    let keys = t.key.(v) and vals = t.value.(v) in
    for i = 0 to t.len.(v) - 1 do
      f keys.(i) vals.(i)
    done
end

type t = {
  n : int;
  q : Sparse.t;  (* q.(v) row: nonzero heights h_{v,d}, ascending d *)
  mutable total : int;
  mutable watcher : (int -> int -> unit) option;  (* fires on every height change *)
  (* Incremental max-height tracking: height_counts.(k) is the number of
     (v, d) pairs currently at height k (k >= 1), so the maximum can be
     maintained in amortized O(1) instead of a full sweep. *)
  mutable height_counts : int array;
  mutable max_h : int;
}

let create n =
  {
    n;
    q = Sparse.create n;
    total = 0;
    watcher = None;
    height_counts = Array.make 16 0;
    max_h = 0;
  }

let nodes t = t.n

let height t v d = Sparse.get t.q v d
let heights t = t.q

let set_watcher t f = t.watcher <- Some f

let clear_watcher t = t.watcher <- None

let notify t v d = match t.watcher with None -> () | Some f -> f v d

let grow_counts t k =
  if k >= Array.length t.height_counts then begin
    let len = ref (Array.length t.height_counts) in
    while k >= !len do
      len := 2 * !len
    done;
    let counts = Array.make !len 0 in
    Array.blit t.height_counts 0 counts 0 (Array.length t.height_counts);
    t.height_counts <- counts
  end

(* A buffer moved from height [k - 1] to height [k]. *)
let count_up t k =
  grow_counts t k;
  t.height_counts.(k) <- t.height_counts.(k) + 1;
  if k > 1 then t.height_counts.(k - 1) <- t.height_counts.(k - 1) - 1;
  if k > t.max_h then t.max_h <- k

(* A buffer moved from height [k] to height [k - 1]. *)
let count_down t k =
  t.height_counts.(k) <- t.height_counts.(k) - 1;
  if k > 1 then t.height_counts.(k - 1) <- t.height_counts.(k - 1) + 1;
  while t.max_h > 0 && t.height_counts.(t.max_h) = 0 do
    t.max_h <- t.max_h - 1
  done

let add t v d =
  let h = Sparse.update t.q v d 1 in
  t.total <- t.total + 1;
  count_up t h;
  notify t v d

let inject t ~cap src dest =
  if src = dest then true
  else if Sparse.get t.q src dest >= cap then false
  else begin
    add t src dest;
    true
  end

let force_add t v d = if v <> d then add t v d

let remove t v d =
  let h = Sparse.get t.q v d in
  if h <= 0 then invalid_arg "Buffers.remove: empty buffer";
  ignore (Sparse.update t.q v d (-1) : int);
  t.total <- t.total - 1;
  count_down t h;
  notify t v d

let iter_nonzero t v f = Sparse.iter_row t.q v f

let total t = t.total

let max_height t = t.max_h
