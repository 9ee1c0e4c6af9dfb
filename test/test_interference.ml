open Adhoc_interference
module Graph = Adhoc_graph.Graph
module Udg = Adhoc_topo.Udg
module Theta_alg = Adhoc_topo.Theta_alg
open Helpers

let pt = Point.make

(* ------------------------------------------------------------------ *)
(* Model                                                               *)

let test_region_radius () =
  let m = Model.make ~delta:0.5 in
  check_close "radius" 3. (Model.region_radius m 2.)

let test_in_region () =
  let m = Model.make ~delta:0.5 in
  let points = [| pt 0. 0.; pt 1. 0. |] in
  (* Interference region: disks of radius 1.5 around both endpoints. *)
  Alcotest.(check bool) "near sender" true (Model.in_region m ~points ~x:0 ~y:1 (pt (-1.) 0.));
  Alcotest.(check bool) "near receiver" true (Model.in_region m ~points ~x:0 ~y:1 (pt 2.4 0.));
  Alcotest.(check bool) "far" false (Model.in_region m ~points ~x:0 ~y:1 (pt 3. 0.));
  Alcotest.(check bool) "boundary open" false (Model.in_region m ~points ~x:0 ~y:1 (pt 2.5 0.))

let test_interferes_cases () =
  let m = Model.make ~delta:0.5 in
  (* Two short parallel edges, close together -> interfere. *)
  let points = [| pt 0. 0.; pt 1. 0.; pt 0. 0.5; pt 1. 0.5; pt 10. 0.; pt 11. 0. |] in
  Alcotest.(check bool) "close edges interfere" true
    (Model.interferes m ~points (0, 1) (2, 3));
  Alcotest.(check bool) "far edges do not" false (Model.interferes m ~points (0, 1) (4, 5));
  Alcotest.(check bool) "symmetric" true
    (Model.interferes m ~points (2, 3) (0, 1) = Model.interferes m ~points (0, 1) (2, 3));
  Alcotest.(check bool) "self" true (Model.interferes m ~points (0, 1) (0, 1))

let test_asymmetric_one_way () =
  (* A long edge's region can cover a short far edge while the short edge's
     region misses the long one: one_way is genuinely directional. *)
  let m = Model.make ~delta:0. in
  let points = [| pt 0. 0.; pt 10. 0.; pt 4. 3.; pt 4.5 3. |] in
  Alcotest.(check bool) "long covers short" true
    (Model.one_way m ~points ~src:(0, 1) ~dst:(2, 3));
  Alcotest.(check bool) "short misses long" false
    (Model.one_way m ~points ~src:(2, 3) ~dst:(0, 1))

(* ------------------------------------------------------------------ *)
(* Conflict                                                            *)

let overlay_instance seed =
  let points = points_of_seed ~min_n:5 ~max_n:35 seed in
  let range = 2. *. Udg.critical_range points in
  let alg = Theta_alg.build ~theta:(Float.pi /. 6.) ~range points in
  (points, Theta_alg.overlay alg, Theta_alg.build ~theta:(Float.pi /. 6.) ~range points)

(* Rows are sorted ascending by construction in both builds, so
   structural equality is set equality. *)
let matches_brute model ~points g =
  (Conflict.build model ~points g).Conflict.sets = (Conflict.build_brute model ~points g).Conflict.sets

(* The instance families the grid build is checked on against the brute
   oracle, all drawn from one seed:
   - the ΘALG overlay, at a random Δ and at Δ = 0;
   - a wide length mix: a UDG at 3× the critical range plus a few long
     chords whose guard zones dwarf every other edge's;
   - integer lattice points, where whole families of edges share one r²,
     so the (r², id) key falls back on the edge id;
   - repeated positions, which give zero-length edges with empty guard
     zones. *)
let brute_cases seed =
  let rng = Prng.create (seed + 3) in
  let points, overlay, _ = overlay_instance seed in
  let n = Array.length points in
  let delta = Prng.range rng 0. 1. in
  let chords = List.init 3 (fun _ -> (Prng.int rng n, Prng.int rng n)) in
  let skewed =
    Graph.union (Udg.build ~range:(3. *. Udg.critical_range points) points) (Graph.geometric points chords)
  in
  let k = 3 + Prng.int rng 6 in
  let lattice = Array.init (k * k) (fun i -> pt (float_of_int (i mod k)) (float_of_int (i / k))) in
  let lattice_range = [| 1.; 1.5; 2.; 2.3 |].(Prng.int rng 4) in
  let lattice_delta = [| 0.; 0.5; 1.; delta |].(Prng.int rng 4) in
  let copies = Array.init (1 + Prng.int rng 6) (fun _ -> points.(Prng.int rng n)) in
  let doubled = Array.append points copies in
  [
    (delta, points, overlay);
    (0., points, overlay);
    (delta, points, skewed);
    (lattice_delta, lattice, Udg.build ~range:lattice_range lattice);
    (delta, doubled, Udg.build ~range:(2. *. Udg.critical_range points) doubled);
  ]

let test_build_matches_brute =
  qtest "grid-accelerated = brute force" ~count:60 seed_gen (fun seed ->
      List.for_all
        (fun (delta, points, g) -> matches_brute (Model.make ~delta) ~points g)
        (brute_cases seed))

let test_brute_n400 () =
  let rng = Prng.create 400 in
  let points = Adhoc_pointset.Generators.uniform rng 400 in
  let range = 1.5 *. Udg.critical_range points in
  let g = Theta_alg.overlay (Theta_alg.build ~theta:(Float.pi /. 6.) ~range points) in
  Alcotest.(check bool) "n = 400 overlay" true (matches_brute (Model.make ~delta:0.5) ~points g)

(* Edges a billion times shorter than the spread of the points: the grid
   cell is not sized by the guard zones alone. *)
let test_brute_tiny_edges () =
  let points = [| pt 0. 0.; pt 1e-9 0.; pt 1. 1.; pt 1. (1. +. 1e-9) |] in
  let g = Graph.geometric points [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "tiny edges" true (matches_brute (Model.make ~delta:0.5) ~points g)

(* The interference predicate measures the points, never the lengths a
   graph stores: the overlay re-weighted to length 0.01 still matches the
   oracle. *)
let test_stored_lengths_ignored =
  qtest "grid-accelerated = brute force, non-Euclidean lengths" ~count:60 seed_gen (fun seed ->
      let points, overlay, _ = overlay_instance seed in
      let edges =
        List.init (Graph.num_edges overlay) (fun e ->
            let u, v = Graph.endpoints overlay e in
            (u, v, 0.01))
      in
      matches_brute (Model.make ~delta:0.5) ~points (Graph.of_edges ~n:(Array.length points) edges))

(* Binary search over the ascending row = the linear scan, for every
   ordered pair, the diagonal included.  The far-off extra edge has an
   empty row. *)
let test_interfere_oracle =
  qtest "interfere = linear scan of the row" ~count:40 seed_gen (fun seed ->
      let points, overlay, _ = overlay_instance seed in
      let n = Array.length points in
      let points = Array.append points [| pt 10. 10.; pt 10.01 10. |] in
      let edges =
        List.init (Graph.num_edges overlay) (fun e ->
            let u, v = Graph.endpoints overlay e in
            (u, v, Graph.length overlay e))
      in
      let g = Graph.of_edges ~n:(n + 2) (edges @ [ (n, n + 1, 0.01) ]) in
      let c = Conflict.build (Model.make ~delta:0.5) ~points g in
      let m = Graph.num_edges g in
      Array.length c.Conflict.sets.(m - 1) = 0
      && List.for_all
           (fun e ->
             List.for_all
               (fun e' -> Conflict.interfere c e e' = Array.exists (fun x -> x = e') c.Conflict.sets.(e))
               (List.init m Fun.id))
           (List.init m Fun.id))

(* Route defaults at n = 2048, seed 1: about 7.7k overlay edges and 563k
   interfering pairs.  The build allocates output rows and per-edge
   partner lists, never a per-candidate structure. *)
let test_build_allocation () =
  let rng = Prng.create 1 in
  let points = Adhoc_pointset.Generators.uniform rng 2048 in
  let range = 1.5 *. Udg.critical_range points in
  let g = Theta_alg.overlay (Theta_alg.build ~theta:(Float.pi /. 6.) ~range points) in
  let model = Model.make ~delta:0.5 in
  let before = Adhoc_obs.Gcstat.read () in
  let c = Conflict.build model ~points g in
  let after = Adhoc_obs.Gcstat.read () in
  let words = (Adhoc_obs.Gcstat.delta ~before ~after).Adhoc_obs.Gcstat.minor_words in
  let pairs = Array.fold_left (fun acc row -> acc + Array.length row) 0 c.Conflict.sets / 2 in
  Alcotest.(check bool) "hundreds of thousands of pairs" true (pairs > 100_000);
  if words > 40. *. float_of_int pairs then
    Alcotest.failf "%.0f minor words for %d pairs: %.1f words per pair, over 40" words pairs
      (words /. float_of_int pairs)

let test_interference_number_zero () =
  let points = [| pt 0. 0.; pt 1. 0. |] in
  let g = Graph.geometric points [ (0, 1) ] in
  let c = Conflict.build (Model.make ~delta:0.5) ~points g in
  Alcotest.(check int) "single edge" 0 (Conflict.interference_number c)

let test_coloring_proper =
  qtest "greedy colouring is proper" ~count:60 seed_gen (fun seed ->
      let points, g, _ = overlay_instance seed in
      let c = Conflict.build (Model.make ~delta:0.5) ~points g in
      let colors, k = Conflict.greedy_coloring c in
      let proper = ref true in
      Array.iteri
        (fun e neighbors ->
          Array.iter (fun e' -> if colors.(e) = colors.(e') then proper := false) neighbors)
        c.Conflict.sets;
      !proper && k <= Conflict.interference_number c + 1 && k >= 1)

let test_independent_and_greedy =
  qtest "greedy independent set is independent and maximal" ~count:60 seed_gen (fun seed ->
      let points, g, _ = overlay_instance seed in
      let c = Conflict.build (Model.make ~delta:0.5) ~points g in
      let all = List.init (Graph.num_edges g) Fun.id in
      let indep = Conflict.max_independent_greedy c all in
      Conflict.independent c indep
      && List.for_all
           (fun e ->
             List.mem e indep
             || List.exists (fun e' -> Conflict.interfere c e e') indep)
           all)

let test_set_sizes_symmetric =
  qtest "interference relation symmetric" ~count:60 seed_gen (fun seed ->
      let points, g, _ = overlay_instance seed in
      let c = Conflict.build (Model.make ~delta:0.3) ~points g in
      let ok = ref true in
      Array.iteri
        (fun e neighbors ->
          Array.iter (fun e' -> if not (Conflict.interfere c e' e) then ok := false) neighbors)
        c.Conflict.sets;
      !ok)

(* ------------------------------------------------------------------ *)
(* Theta_paths (Theorem 2.8 / Lemma 2.9)                               *)

let test_theta_paths_valid =
  qtest "replacement paths walk overlay edges" ~count:60 seed_gen (fun seed ->
      let points, _, alg = overlay_instance seed in
      let range = alg.Theta_alg.range in
      let gstar = Udg.build ~range points in
      let overlay = Theta_alg.overlay alg in
      let tp = Theta_paths.create alg in
      Graph.fold_edges gstar ~init:true ~f:(fun acc _ e ->
          acc
          &&
          let path = Theta_paths.replace tp e.Graph.u e.Graph.v in
          let rec ok = function
            | a :: (b :: _ as rest) -> Graph.mem_edge overlay a b && ok rest
            | _ -> true
          in
          List.hd path = e.Graph.u
          && List.nth path (List.length path - 1) = e.Graph.v
          && ok path))

let test_theta_paths_identity_on_overlay_edges =
  qtest "overlay edges replace to themselves" ~count:40 seed_gen (fun seed ->
      let _, overlay, alg = overlay_instance seed in
      let tp = Theta_paths.create alg in
      Graph.fold_edges overlay ~init:true ~f:(fun acc _ e ->
          acc && Theta_paths.replace tp e.Graph.u e.Graph.v = [ e.Graph.u; e.Graph.v ]))

let test_lemma_2_9_multiplicity =
  qtest "Lemma 2.9: ≤ 6 θ-paths share an overlay edge" ~count:40 seed_gen (fun seed ->
      let points, _, alg = overlay_instance seed in
      let range = alg.Theta_alg.range in
      let gstar = Udg.build ~range points in
      let m = Model.make ~delta:0.25 in
      let conflict = Conflict.build m ~points gstar in
      let tp = Theta_paths.create alg in
      (* Several random maximal non-interfering sets T of G* edges. *)
      let rng = Prng.create (seed * 13) in
      let ids = Array.init (Graph.num_edges gstar) Fun.id in
      let ok = ref true in
      for _ = 1 to 3 do
        Prng.shuffle rng ids;
        let t = Conflict.max_independent_greedy conflict (Array.to_list ids) in
        let pairs = List.map (fun e -> Graph.endpoints gstar e) t in
        if Theta_paths.max_multiplicity tp pairs > 6 then ok := false
      done;
      !ok)

let test_replace_edges_pairs () =
  let points = [| pt 0. 0.; pt 1. 0.; pt 2. 0. |] in
  let alg = Theta_alg.build ~theta:(Float.pi /. 6.) ~range:2.5 points in
  let tp = Theta_paths.create alg in
  let edges = Theta_paths.replace_edges tp 0 2 in
  Alcotest.(check bool) "nonempty" true (edges <> []);
  let path = Theta_paths.replace tp 0 2 in
  Alcotest.(check int) "pairs count" (List.length path - 1) (List.length edges)


let test_neighborhood_bounds =
  qtest "I_e dominates neighbours' interference sets" ~count:40 seed_gen (fun seed ->
      let points, g, _ = overlay_instance seed in
      let c = Conflict.build (Model.make ~delta:0.4) ~points g in
      let sizes = Conflict.set_sizes c in
      let bounds = Conflict.neighborhood_bounds c in
      let ok = ref (Graph.num_edges g >= 0) in
      Array.iteri
        (fun e neighbors ->
          if bounds.(e) < sizes.(e) then ok := false;
          Array.iter (fun e' -> if bounds.(e) < sizes.(e') then ok := false) neighbors)
        c.Conflict.sets;
      !ok)

let test_lemma_3_2_union_bound =
  qtest "Lemma 3.2: union bound sum <= 1/2 for every edge" ~count:40 seed_gen (fun seed ->
      let points, g, _ = overlay_instance seed in
      let c = Conflict.build (Model.make ~delta:0.4) ~points g in
      let bounds = Conflict.neighborhood_bounds c in
      ignore (Graph.num_edges g);
      Array.for_all
        (fun neighbors ->
          let s =
            Array.fold_left
              (fun acc e' -> acc +. (1. /. (2. *. float_of_int (max 1 bounds.(e')))))
              0. neighbors
          in
          s <= 0.5 +. 1e-9)
        c.Conflict.sets)


(* ------------------------------------------------------------------ *)
(* SINR (physical model)                                               *)

let test_sinr_lone_transmission =
  qtest "a lone transmission always decodes" ~count:100 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let pts =
        [| pt (Prng.uniform rng) (Prng.uniform rng); pt (Prng.uniform rng) (Prng.uniform rng) |]
      in
      QCheck2.assume (Point.dist pts.(0) pts.(1) > 1e-6);
      let s = Sinr.make ~alpha:3. () in
      Sinr.all_feasible s ~points:pts ~transmissions:[| (0, 1) |])

let test_sinr_near_interferer_kills () =
  (* An interferer right next to the receiver swamps a long link. *)
  let pts = [| pt 0. 0.; pt 1. 0.; pt 1.05 0.; pt 2. 0. |] in
  let s = Sinr.make ~alpha:3. () in
  let txs = [| (0, 1); (2, 3) |] in
  let ok = Sinr.feasible s ~points:pts ~transmissions:txs in
  Alcotest.(check bool) "victim fails" false ok.(0)

let test_sinr_far_interferer_harmless () =
  let pts = [| pt 0. 0.; pt 0.1 0.; pt 100. 0.; pt 100.1 0. |] in
  let s = Sinr.make ~alpha:3. () in
  Alcotest.(check bool) "both decode" true
    (Sinr.all_feasible s ~points:pts ~transmissions:[| (0, 1); (2, 3) |])

let test_sinr_margin_monotone () =
  (* A larger decoding threshold can only shrink the feasible set. *)
  let rng = Prng.create 5 in
  let pts = Array.init 12 (fun _ -> pt (Prng.uniform rng) (Prng.uniform rng)) in
  let txs = [| (0, 1); (2, 3); (4, 5); (6, 7); (8, 9); (10, 11) |] in
  let frac beta =
    Sinr.feasible_fraction (Sinr.make ~beta ~alpha:3. ()) ~points:pts ~transmissions:txs
  in
  Alcotest.(check bool) "monotone in beta" true (frac 1. >= frac 4.)

let test_sinr_guard_zone_improves =
  qtest "larger guard zones raise SINR feasibility" ~count:10 seed_gen (fun seed ->
      let points, g, _ = overlay_instance seed in
      QCheck2.assume (Graph.num_edges g > 3);
      let s = Sinr.make ~alpha:3. () in
      let frac delta =
        let c = Conflict.build (Model.make ~delta) ~points g in
        let set = Conflict.max_independent_greedy c (List.init (Graph.num_edges g) Fun.id) in
        let txs = Array.of_list (List.map (Graph.endpoints g) set) in
        Sinr.feasible_fraction s ~points ~transmissions:txs
      in
      frac 2. >= frac 0. -. 1e-9)

let () =
  Alcotest.run "interference"
    [
      ( "model",
        [
          case "region radius" test_region_radius;
          case "in_region" test_in_region;
          case "interferes" test_interferes_cases;
          case "one_way asymmetric" test_asymmetric_one_way;
        ] );
      ( "conflict",
        [
          test_build_matches_brute;
          case "grid-accelerated = brute force, n = 400" test_brute_n400;
          case "grid-accelerated = brute force, tiny edges" test_brute_tiny_edges;
          test_stored_lengths_ignored;
          test_interfere_oracle;
          case "build allocates at most 40 words per pair" test_build_allocation;
          case "single edge" test_interference_number_zero;
          test_coloring_proper;
          test_independent_and_greedy;
          test_set_sizes_symmetric;
          test_neighborhood_bounds;
          test_lemma_3_2_union_bound;
        ] );
      ( "theta_paths",
        [
          test_theta_paths_valid;
          test_theta_paths_identity_on_overlay_edges;
          test_lemma_2_9_multiplicity;
          case "replace_edges" test_replace_edges_pairs;
        ] );
      ( "sinr",
        [
          test_sinr_lone_transmission;
          case "near interferer" test_sinr_near_interferer_kills;
          case "far interferer" test_sinr_far_interferer_harmless;
          case "beta monotone" test_sinr_margin_monotone;
          test_sinr_guard_zone_improves;
        ] );
    ]
