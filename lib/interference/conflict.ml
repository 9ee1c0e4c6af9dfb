open Adhoc_geom
module Graph = Adhoc_graph.Graph

type t = {
  model : Model.t;
  sets : int array array;
}

let edge_pair g e =
  let u, v = Graph.endpoints g e in
  (u, v)

let build_brute model ~points g =
  let m = Graph.num_edges g in
  let lists = Array.make m [] in
  for e = 0 to m - 1 do
    for e' = e + 1 to m - 1 do
      if Model.interferes model ~points (edge_pair g e) (edge_pair g e') then begin
        lists.(e) <- e' :: lists.(e);
        lists.(e') <- e :: lists.(e')
      end
    done
  done;
  let sets =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.sort Int.compare a;
        a)
      lists
  in
  { model; sets }

let empty_sets m = Array.make m [||]

(* Merges the two ascending runs [row.[0, h)] and [row.[h, len)] in place,
   through the caller's scratch [buf] (at least [len] long). *)
let merge_halves (buf : int array) (row : int array) h =
  let len = Array.length row in
  if h > 0 && h < len then begin
    (* An element-wise copy: [Array.blit] into a major-heap buffer would
       pay a write barrier per element. *)
    for k = 0 to len - 1 do
      buf.(k) <- row.(k)
    done;
    let i = ref 0 and j = ref h in
    for k = 0 to len - 1 do
      if !j >= len || (!i < h && buf.(!i) < buf.(!j)) then begin
        row.(k) <- buf.(!i);
        incr i
      end
      else begin
        row.(k) <- buf.(!j);
        incr j
      end
    done
  end

let build ?pool model ~points g =
  let m = Graph.num_edges g in
  let n = Array.length points in
  if m = 0 || n = 0 then { model; sets = empty_sets m }
  else begin
    let xs = Array.map (fun (p : Point.t) -> p.x) points in
    let ys = Array.map (fun (p : Point.t) -> p.y) points in
    (* Guard-zone radius of each edge from the point geometry — exactly the
       value [Model.in_region] squares, whatever length the graph stores. *)
    let rad =
      Array.init m (fun e ->
          Model.region_radius model (Point.dist points.(Graph.edge_u g e) points.(Graph.edge_v g e)))
    in
    let r2 = Array.map (fun r -> r *. r) rad in
    let max_r = Array.fold_left Float.max 0. rad in
    (* Every interfering pair needs an endpoint distance² below
       max(r_e², r_e'²), so with all radii zero nothing interferes. *)
    if max_r <= 0. then { model; sets = empty_sets m }
    else begin
      (* Cells at least extent/√n wide keep the grid at O(n) cells even
         when every edge is tiny next to the spread of the points. *)
      let extent a = Array.fold_left Float.max neg_infinity a -. Array.fold_left Float.min infinity a in
      let cell = Float.max max_r (Float.max (extent xs) (extent ys) /. sqrt (float_of_int n)) in
      let grid = Spatial_grid.build ~cell points in
      (* Phase 1 (pool body, index-pure): [lower.(e)] lists the partners of
         [e] with a smaller (r², id) key.  [Model.interferes e e'] holds iff
         the closest endpoint pair is nearer than max(r_e, r_e'), which for a
         lower-key [e'] is [r_e]: so each pair is found exactly once, from
         its larger-key edge, by searching only that edge's own radius around
         [u] and [v].  A candidate [e' = (a, b)] can surface through up to
         four (query endpoint, found endpoint) pairs; it is kept only at the
         first of (u,a), (u,b), (v,a), (v,b) inside the ball, which needs no
         dedup structure.  The ball test below repeats the grid's own
         distance² expression, so "inside" means the same thing to both. *)
      let partners e =
        let u = Graph.edge_u g e and v = Graph.edge_v g e in
        let r2e = r2.(e) in
        let xu = xs.(u) and yu = ys.(u) and xv = xs.(v) and yv = ys.(v) in
        let found = ref [] in
        (* [base] is the index of the query endpoint's first pair: 0 for
           [u], 2 for [v].  [nbr] is the far endpoint of [e'] from the found
           node, so the found node is [a] exactly when [nbr] is not. *)
        let visit base nbr e' =
          let c = Float.compare r2.(e') r2e in
          if c < 0 || (c = 0 && e' < e) then begin
            let a = Graph.edge_u g e' and b = Graph.edge_v g e' in
            let xa = xs.(a) and ya = ys.(a) and xb = xs.(b) and yb = ys.(b) in
            let dua = ((xa -. xu) *. (xa -. xu)) +. ((ya -. yu) *. (ya -. yu)) in
            let dub = ((xb -. xu) *. (xb -. xu)) +. ((yb -. yu) *. (yb -. yu)) in
            let dva = ((xa -. xv) *. (xa -. xv)) +. ((ya -. yv) *. (ya -. yv)) in
            let dvb = ((xb -. xv) *. (xb -. xv)) +. ((yb -. yv) *. (yb -. yv)) in
            let first =
              if dua <= r2e then 0 else if dub <= r2e then 1 else if dva <= r2e then 2 else 3
            in
            let via = if nbr = a then base + 1 else base in
            if first = via && (dua < r2e || dub < r2e || dva < r2e || dvb < r2e) then
              found := e' :: !found
          end
        in
        let on_u nbr e' = visit 0 nbr e' and on_v nbr e' = visit 2 nbr e' in
        Spatial_grid.iter_within grid points.(u) rad.(e) (fun w -> Graph.iter_neighbors g w on_u);
        Spatial_grid.iter_within grid points.(v) rad.(e) (fun w -> Graph.iter_neighbors g w on_v);
        Array.of_list !found
      in
      let lower = Adhoc_util.Pool.opt_init pool ~label:"conflict" m partners in
      (* Phase 2 (sequential) assembles the symmetric rows ascending by two
         counting passes: row [e] holds its [hcount.(e)] higher-key partners
         first, then its lower-key ones, each run ascending, and one merge
         per row through a shared buffer finishes it. *)
      let hcount = Array.make m 0 in
      Array.iter (Array.iter (fun e' -> hcount.(e') <- hcount.(e') + 1)) lower;
      let sets = Array.init m (fun e -> Array.make (hcount.(e) + Array.length lower.(e)) 0) in
      let fill = Array.make m 0 in
      (* Pass 1: transposing [lower] in ascending [e] fills each row's
         higher-key run in ascending order. *)
      Array.iteri
        (fun e row ->
          Array.iter
            (fun e' ->
              sets.(e').(fill.(e')) <- e;
              fill.(e') <- fill.(e') + 1)
            row)
        lower;
      (* Pass 2: transposing those runs back, again in ascending [e], fills
         each row's lower-key run in ascending order. *)
      for e = 0 to m - 1 do
        let row = sets.(e) in
        for i = 0 to hcount.(e) - 1 do
          let x = row.(i) in
          sets.(x).(fill.(x)) <- e;
          fill.(x) <- fill.(x) + 1
        done
      done;
      let buf = Array.make (Array.fold_left (fun acc row -> max acc (Array.length row)) 0 sets) 0 in
      Array.iteri (fun e row -> merge_halves buf row hcount.(e)) sets;
      { model; sets }
    end
  end

let set_sizes t = Array.map Array.length t.sets

let neighborhood_bounds t =
  let sizes = Array.map Array.length t.sets in
  Array.mapi
    (fun e neighbors -> Array.fold_left (fun acc e' -> max acc sizes.(e')) sizes.(e) neighbors)
    t.sets

let interference_number t = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 t.sets

(* Binary search for [x] in [row.(lo .. hi-1)], ascending.  Top-level, not
   a local closure, so that a lookup allocates nothing: workload
   certification runs one per reserved edge per tested slot. *)
let rec row_mem (row : int array) (x : int) lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let y = row.(mid) in
  y = x || if y < x then row_mem row x (mid + 1) hi else row_mem row x lo mid

let interfere t e e' =
  let row = t.sets.(e) in
  row_mem row e' 0 (Array.length row)

let adjacency t = t.sets

let greedy_coloring t =
  let m = Array.length t.sets in
  let colors = Array.make m (-1) in
  (* mark.(c) = e exactly when an already-coloured neighbour of [e] holds
     colour c; stamping with the edge id makes the taken-colour scan
     allocation-free and the whole pass O(m·Δ). *)
  let mark = Array.make (m + 1) (-1) in
  let used = ref 0 in
  for e = 0 to m - 1 do
    Array.iter (fun e' -> if colors.(e') >= 0 then mark.(colors.(e')) <- e) t.sets.(e);
    let c = ref 0 in
    while mark.(!c) = e do
      incr c
    done;
    colors.(e) <- !c;
    if !c + 1 > !used then used := !c + 1
  done;
  (colors, !used)

let independent t ids =
  let rec check = function
    | [] -> true
    | e :: rest -> List.for_all (fun e' -> not (interfere t e e')) rest && check rest
  in
  check ids

let max_independent_greedy t candidates =
  let sorted = List.sort_uniq Int.compare candidates in
  let chosen = ref [] in
  List.iter
    (fun e -> if List.for_all (fun c -> not (interfere t e c)) !chosen then chosen := e :: !chosen)
    sorted;
  List.rev !chosen
