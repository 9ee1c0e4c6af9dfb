open Adhoc_routing
module Graph = Adhoc_graph.Graph
module Cost = Adhoc_graph.Cost
module Conflict = Adhoc_interference.Conflict
module Model = Adhoc_interference.Model
module Mac = Adhoc_mac.Mac
module Udg = Adhoc_topo.Udg
module Theta_alg = Adhoc_topo.Theta_alg
open Helpers

(* ------------------------------------------------------------------ *)
(* Buffers                                                             *)

let test_buffers_inject_cap () =
  let b = Buffers.create 3 in
  Alcotest.(check bool) "inject" true (Buffers.inject b ~cap:2 0 1);
  Alcotest.(check bool) "inject" true (Buffers.inject b ~cap:2 0 1);
  Alcotest.(check bool) "full" false (Buffers.inject b ~cap:2 0 1);
  Alcotest.(check int) "height" 2 (Buffers.height b 0 1);
  Alcotest.(check int) "total" 2 (Buffers.total b);
  Alcotest.(check bool) "self absorbs" true (Buffers.inject b ~cap:2 1 1);
  Alcotest.(check int) "self not stored" 0 (Buffers.height b 1 1)

let test_buffers_remove () =
  let b = Buffers.create 2 in
  ignore (Buffers.inject b ~cap:5 0 1);
  Buffers.remove b 0 1;
  Alcotest.(check int) "empty" 0 (Buffers.height b 0 1);
  Alcotest.check_raises "remove empty" (Invalid_argument "Buffers.remove: empty buffer")
    (fun () -> Buffers.remove b 0 1)

let test_buffers_force_add () =
  let b = Buffers.create 2 in
  for _ = 1 to 10 do
    Buffers.force_add b 0 1
  done;
  Alcotest.(check int) "uncapped" 10 (Buffers.height b 0 1);
  Buffers.force_add b 1 1;
  Alcotest.(check int) "destination absorbs" 0 (Buffers.height b 1 1)

let test_buffers_nonzero_iteration =
  qtest "iter_nonzero lists exactly the non-empty buffers" ~count:100 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 8 in
      let b = Buffers.create n in
      let reference = Array.make_matrix n n 0 in
      for _ = 1 to 200 do
        let v = Prng.int rng n and d = Prng.int rng n in
        if Prng.bool rng then begin
          if Buffers.inject b ~cap:5 v d && v <> d then
            reference.(v).(d) <- reference.(v).(d) + 1
        end
        else if reference.(v).(d) > 0 then begin
          Buffers.remove b v d;
          reference.(v).(d) <- reference.(v).(d) - 1
        end
      done;
      let ok = ref true in
      for v = 0 to n - 1 do
        let seen = Hashtbl.create 8 in
        Buffers.iter_nonzero b v (fun d h ->
            Hashtbl.replace seen d ();
            if reference.(v).(d) <> h || h = 0 then ok := false);
        for d = 0 to n - 1 do
          if reference.(v).(d) > 0 && not (Hashtbl.mem seen d) then ok := false
        done
      done;
      let expected_total =
        Array.fold_left (fun a row -> Array.fold_left ( + ) a row) 0 reference
      in
      !ok && Buffers.total b = expected_total
      && Buffers.max_height b
         = Array.fold_left (fun a row -> Array.fold_left max a row) 0 reference)

let test_buffers_max_height_incremental () =
  let b = Buffers.create 3 in
  Alcotest.(check int) "empty" 0 (Buffers.max_height b);
  (* Push one pile well past the initial histogram capacity. *)
  for _ = 1 to 100 do
    Buffers.force_add b 0 1
  done;
  for _ = 1 to 40 do
    Buffers.force_add b 2 0
  done;
  Alcotest.(check int) "tall pile" 100 (Buffers.max_height b);
  (* Draining the tallest pile must walk the maximum down to the next. *)
  for _ = 1 to 100 do
    Buffers.remove b 0 1
  done;
  Alcotest.(check int) "next pile" 40 (Buffers.max_height b);
  for _ = 1 to 40 do
    Buffers.remove b 2 0
  done;
  Alcotest.(check int) "empty again" 0 (Buffers.max_height b)

let test_buffers_watcher () =
  let b = Buffers.create 3 in
  let events = ref [] in
  Buffers.set_watcher b (fun v d -> events := (v, d) :: !events);
  ignore (Buffers.inject b ~cap:5 0 1);
  Buffers.force_add b 2 1;
  Buffers.remove b 0 1;
  (* Self-addressed injections are absorbed without touching a buffer. *)
  ignore (Buffers.inject b ~cap:5 1 1);
  Alcotest.(check (list (pair int int)))
    "every height change reported" [ (0, 1); (2, 1); (0, 1) ] (List.rev !events);
  Buffers.clear_watcher b;
  Buffers.force_add b 0 2;
  Alcotest.(check int) "cleared watcher is silent" 3 (List.length !events)

let test_buffers_matrix_oracle =
  qtest "flat buffers = dense matrix oracle under random traffic" ~count:100 seed_gen
    (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 8 in
      let b = Buffers.create n in
      let reference = Array.make_matrix n n 0 in
      let ok = ref true in
      for _ = 1 to 300 do
        let v = Prng.int rng n and d = Prng.int rng n in
        match Prng.int rng 3 with
        | 0 ->
            if Buffers.inject b ~cap:4 v d then begin
              if v <> d then reference.(v).(d) <- reference.(v).(d) + 1
            end
            else if reference.(v).(d) < 4 then ok := false
        | 1 ->
            Buffers.force_add b v d;
            if v <> d then reference.(v).(d) <- reference.(v).(d) + 1
        | _ ->
            if reference.(v).(d) > 0 then begin
              Buffers.remove b v d;
              reference.(v).(d) <- reference.(v).(d) - 1
            end
      done;
      (* Every height agrees, and the traversal visits exactly the
         nonzero destinations in ascending order. *)
      for v = 0 to n - 1 do
        for d = 0 to n - 1 do
          if Buffers.height b v d <> reference.(v).(d) then ok := false
        done;
        let expected =
          List.filter
            (fun d -> reference.(v).(d) > 0)
            (List.init n Fun.id)
          |> List.map (fun d -> (d, reference.(v).(d)))
        in
        let seen = ref [] in
        Buffers.iter_nonzero b v (fun d h -> seen := (d, h) :: !seen);
        if List.rev !seen <> expected then ok := false
      done;
      !ok)

let test_sparse_matrix_oracle =
  qtest "Buffers.Sparse = dense matrix oracle" ~count:100 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 8 in
      let s = Buffers.Sparse.create n in
      let reference = Array.make_matrix n n 0 in
      let ok = ref true in
      for _ = 1 to 300 do
        let v = Prng.int rng n and k = Prng.int rng n in
        match Prng.int rng 3 with
        | 0 ->
            let delta = 1 + Prng.int rng 3 in
            reference.(v).(k) <- reference.(v).(k) + delta;
            if Buffers.Sparse.update s v k delta <> reference.(v).(k) then ok := false
        | 1 ->
            if reference.(v).(k) > 0 then begin
              reference.(v).(k) <- reference.(v).(k) - 1;
              if Buffers.Sparse.update s v k (-1) <> reference.(v).(k) then ok := false
            end
        | _ ->
            let x = Prng.int rng 4 in
            Buffers.Sparse.set s v k x;
            reference.(v).(k) <- x
      done;
      if Buffers.Sparse.size s <> n then ok := false;
      for v = 0 to n - 1 do
        for k = 0 to n - 1 do
          if Buffers.Sparse.get s v k <> reference.(v).(k) then ok := false;
          (* find agrees with membership: live keys resolve to their slot,
             absent keys to a complemented insertion point. *)
          let idx = Buffers.Sparse.find s v k in
          if reference.(v).(k) <> 0 then begin
            if idx < 0 then ok := false
          end
          else if idx >= 0 then ok := false
        done;
        let nonzero =
          Array.fold_left (fun a x -> if x <> 0 then a + 1 else a) 0 reference.(v)
        in
        if Buffers.Sparse.row_length s v <> nonzero then ok := false;
        let last = ref (-1) and count = ref 0 in
        Buffers.Sparse.iter_row s v (fun k x ->
            if k <= !last || x = 0 || x <> reference.(v).(k) then ok := false;
            last := k;
            incr count);
        if !count <> nonzero then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Balancing                                                           *)

let test_balancing_picks_argmax () =
  let b = Buffers.create 4 in
  let p = Balancing.params ~threshold:1. ~gamma:1. ~capacity:100 in
  (* Node 0 has 5 packets for dest 2 and 3 packets for dest 3. *)
  for _ = 1 to 5 do
    ignore (Buffers.inject b ~cap:100 0 2)
  done;
  for _ = 1 to 3 do
    ignore (Buffers.inject b ~cap:100 0 3)
  done;
  (match Balancing.best_toward b p ~cost:0.5 ~src:0 ~dst:1 with
  | Some d ->
      Alcotest.(check int) "dest" 2 d.Balancing.dest;
      check_close "gain" (5. -. 0. -. 0.5) d.Balancing.gain
  | None -> Alcotest.fail "expected a decision");
  (* Raise destination-side height: gain drops below threshold. *)
  for _ = 1 to 5 do
    Buffers.force_add b 1 2
  done;
  for _ = 1 to 3 do
    Buffers.force_add b 1 3
  done;
  Alcotest.(check bool) "no decision" true
    (Balancing.best_toward b p ~cost:0.5 ~src:0 ~dst:1 = None)

let test_balancing_threshold_strict () =
  let b = Buffers.create 2 in
  let p = Balancing.params ~threshold:3. ~gamma:0. ~capacity:10 in
  for _ = 1 to 3 do
    ignore (Buffers.inject b ~cap:10 0 1)
  done;
  (* Gain = 3 which is not > 3. *)
  Alcotest.(check bool) "not above threshold" true
    (Balancing.best_toward b p ~cost:1. ~src:0 ~dst:1 = None);
  ignore (Buffers.inject b ~cap:10 0 1);
  Alcotest.(check bool) "above threshold" true
    (Balancing.best_toward b p ~cost:1. ~src:0 ~dst:1 <> None)

let test_balancing_apply () =
  let b = Buffers.create 3 in
  ignore (Buffers.inject b ~cap:10 0 2);
  let d = { Balancing.src = 0; dst = 1; dest = 2; gain = 1. } in
  Alcotest.(check bool) "moved" true (Balancing.apply b d = `Moved);
  Alcotest.(check int) "arrived" 1 (Buffers.height b 1 2);
  let d2 = { Balancing.src = 1; dst = 2; dest = 2; gain = 1. } in
  Alcotest.(check bool) "delivered" true (Balancing.apply b d2 = `Delivered);
  Alcotest.(check int) "absorbed" 0 (Buffers.height b 2 2);
  Alcotest.(check int) "drained" 0 (Buffers.total b)

let test_balancing_best_either () =
  let b = Buffers.create 2 in
  let p = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  for _ = 1 to 3 do
    Buffers.force_add b 1 0
  done;
  match Balancing.best_either b p ~cost:0. ~u:0 ~v:1 with
  | Some d ->
      Alcotest.(check int) "sends from higher side" 1 d.Balancing.src;
      Alcotest.(check int) "toward lower" 0 d.Balancing.dst
  | None -> Alcotest.fail "expected decision"

let test_derive_3_1 () =
  let p =
    Balancing.Derive.theorem_3_1 ~opt_buffer:2 ~opt_avg_hops:5. ~opt_avg_cost:1. ~delta:2
      ~epsilon:0.5
  in
  check_close "T = B + 2(delta-1)" 4. p.Balancing.threshold;
  check_close "gamma = (T+B+delta)L/C" 40. p.Balancing.gamma;
  (* H = ceil(B * (1 + 2(1+(T+delta)/B) L / eps)) = ceil(2*(1+2*4*5/0.5)) *)
  Alcotest.(check int) "capacity" 162 p.Balancing.capacity

let test_derive_3_3 () =
  let p =
    Balancing.Derive.theorem_3_3 ~opt_buffer:1 ~opt_avg_hops:4. ~opt_avg_cost:2. ~epsilon:0.5
  in
  check_close "T = 2B+1" 3. p.Balancing.threshold;
  check_close "gamma = (T+B)L/C" 8. p.Balancing.gamma;
  Alcotest.(check int) "capacity" 65 p.Balancing.capacity

let test_derive_epsilon_monotone () =
  let cap eps =
    (Balancing.Derive.theorem_3_1 ~opt_buffer:2 ~opt_avg_hops:5. ~opt_avg_cost:1. ~delta:1
       ~epsilon:eps)
      .Balancing.capacity
  in
  Alcotest.(check bool) "smaller eps needs bigger buffers" true (cap 0.1 > cap 0.5);
  Alcotest.(check bool) "and bigger than 0.9" true (cap 0.5 > cap 0.9)

let test_params_validation () =
  Alcotest.check_raises "negative threshold"
    (Invalid_argument "Balancing.params: negative threshold") (fun () ->
      ignore (Balancing.params ~threshold:(-1.) ~gamma:0. ~capacity:1));
  Alcotest.check_raises "bad epsilon"
    (Invalid_argument "Derive.theorem_3_1: epsilon in (0,1)") (fun () ->
      ignore
        (Balancing.Derive.theorem_3_1 ~opt_buffer:1 ~opt_avg_hops:1. ~opt_avg_cost:1. ~delta:1
           ~epsilon:1.5))

(* Random height matrices for the balancing properties below. *)
let random_heights rng n =
  let heights = Array.make_matrix n n 0 in
  for v = 0 to n - 1 do
    for d = 0 to n - 1 do
      if v <> d && Prng.bool rng then heights.(v).(d) <- Prng.int rng 6
    done
  done;
  heights

let buffers_of_heights heights =
  let n = Array.length heights in
  let b = Buffers.create n in
  for v = 0 to n - 1 do
    for d = 0 to n - 1 do
      for _ = 1 to heights.(v).(d) do
        Buffers.force_add b v d
      done
    done
  done;
  b

(* Decisions must depend only on the height matrix, never on the order the
   hash-backed buffers happened to be built in — the incremental decision
   cache relies on this to reuse decisions computed at different times. *)
let test_balancing_order_independent =
  qtest "decisions ignore buffer construction order" ~count:150 seed_gen (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 6 in
      let heights = random_heights rng n in
      let forward = buffers_of_heights heights in
      (* Same matrix, built backwards with add/remove churn pushing the
         hashtables through a different insertion history. *)
      let churned = Buffers.create n in
      for v = n - 1 downto 0 do
        for d = n - 1 downto 0 do
          if v <> d then begin
            Buffers.force_add churned v d;
            for _ = 1 to heights.(v).(d) do
              Buffers.force_add churned v d
            done;
            Buffers.remove churned v d
          end
        done
      done;
      let p =
        Balancing.params ~threshold:(Prng.uniform rng) ~gamma:(Prng.uniform rng)
          ~capacity:100
      in
      let cost = Prng.uniform rng in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then begin
            if
              Balancing.best_toward forward p ~cost ~src ~dst
              <> Balancing.best_toward churned p ~cost ~src ~dst
            then ok := false;
            if
              src < dst
              && Balancing.best_either forward p ~cost ~u:src ~v:dst
                 <> Balancing.best_either churned p ~cost ~u:src ~v:dst
            then ok := false
          end
        done
      done;
      !ok)

(* best_toward against a brute-force oracle over the full matrix: the chosen
   destination is the argmax (ties to the smaller index) and its gain clears
   the threshold strictly. *)
let test_balancing_matches_oracle =
  qtest "best_toward = brute-force argmax, gain > threshold" ~count:150 seed_gen
    (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 6 in
      let heights = random_heights rng n in
      let b = buffers_of_heights heights in
      let p =
        Balancing.params ~threshold:(Prng.uniform rng *. 2.) ~gamma:(Prng.uniform rng)
          ~capacity:100
      in
      let cost = Prng.uniform rng in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then begin
            let expected = ref None in
            for d = 0 to n - 1 do
              if heights.(src).(d) > 0 then begin
                let gain =
                  float_of_int (heights.(src).(d) - heights.(dst).(d))
                  -. (p.Balancing.gamma *. cost)
                in
                if gain > p.Balancing.threshold then
                  match !expected with
                  | Some (_, bg) when bg >= gain -> ()
                  | _ -> expected := Some (d, gain)
              end
            done;
            match (Balancing.best_toward b p ~cost ~src ~dst, !expected) with
            | None, None -> ()
            | Some dec, Some (d, gain)
              when dec.Balancing.dest = d
                   && dec.Balancing.gain = gain
                   && dec.Balancing.gain > p.Balancing.threshold
                   && dec.Balancing.src = src
                   && dec.Balancing.dst = dst ->
                ()
            | _ -> ok := false
          end
        done
      done;
      !ok)

let test_balancing_apply_conserves =
  qtest "apply conserves packets (Moved) or absorbs one (Delivered)" ~count:150 seed_gen
    (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 6 in
      let b = buffers_of_heights (random_heights rng n) in
      let p = Balancing.params ~threshold:0. ~gamma:(Prng.uniform rng) ~capacity:100 in
      let cost = Prng.uniform rng in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then
            match Balancing.best_toward b p ~cost ~src ~dst with
            | None -> ()
            | Some d ->
                let before = Buffers.total b in
                (match Balancing.apply b d with
                | `Moved ->
                    if Buffers.total b <> before then ok := false;
                    if d.Balancing.dest = dst then ok := false
                | `Delivered ->
                    if Buffers.total b <> before - 1 then ok := false;
                    if d.Balancing.dest <> dst then ok := false)
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)

let overlay_instance seed =
  let points = points_of_seed ~min_n:6 ~max_n:25 seed in
  let range = 2. *. Udg.critical_range points in
  let alg = Theta_alg.build ~theta:(Float.pi /. 6.) ~range points in
  let g = Theta_alg.overlay alg in
  let c = Conflict.build (Model.make ~delta:0.5) ~points g in
  (points, g, c)

let workload_config = { Workload.horizon = 300; attempts = 200; slack = 10; interference_free = false }

let test_workload_counts =
  qtest "injections = certified deliveries" ~count:40 seed_gen (fun seed ->
      let _, g, _ = overlay_instance seed in
      let rng = Prng.create seed in
      let w = Workload.generate workload_config ~rng ~graph:g ~cost:Cost.length in
      let injected = Array.fold_left (fun a l -> a + List.length l) 0 w.Workload.injections in
      injected = w.Workload.opt.Workload.deliveries
      && w.Workload.opt.Workload.deliveries <= workload_config.Workload.attempts)

let test_workload_activations_unique =
  qtest "activation lists are duplicate-free" ~count:40 seed_gen (fun seed ->
      let _, g, _ = overlay_instance seed in
      let rng = Prng.create seed in
      let w = Workload.generate workload_config ~rng ~graph:g ~cost:Cost.length in
      Array.for_all
        (fun l -> List.length l = List.length (List.sort_uniq compare l))
        w.Workload.activations)

let test_workload_interference_free =
  qtest "scenario-1 activations are non-interfering" ~count:40 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let rng = Prng.create seed in
      let w =
        Workload.generate ~conflict:c
          { workload_config with Workload.interference_free = true }
          ~rng ~graph:g ~cost:Cost.length
      in
      Array.for_all (fun l -> Conflict.independent c l) w.Workload.activations)

let test_workload_stats_sane =
  qtest "opt stats are internally consistent" ~count:40 seed_gen (fun seed ->
      let _, g, _ = overlay_instance seed in
      let rng = Prng.create seed in
      let w = Workload.generate workload_config ~rng ~graph:g ~cost:Cost.length in
      let opt = w.Workload.opt in
      opt.Workload.max_buffer >= 1
      && opt.Workload.delta >= 1
      && (opt.Workload.deliveries = 0
         || (opt.Workload.avg_hops >= 1.
            && close ~eps:1e-9 opt.Workload.avg_cost
                 (opt.Workload.total_cost /. float_of_int opt.Workload.deliveries))))

let test_workload_flows_concentrate () =
  let _, g, _ = overlay_instance 3 in
  let rng = Prng.create 3 in
  let w = Workload.flows workload_config ~rng ~graph:g ~cost:Cost.length ~num_flows:2 in
  let pairs =
    Array.to_list w.Workload.injections |> List.concat |> List.sort_uniq compare
  in
  Alcotest.(check bool) "at most 2 distinct pairs" true (List.length pairs <= 2)

let test_workload_single_destination () =
  let _, g, _ = overlay_instance 4 in
  let rng = Prng.create 4 in
  let w =
    Workload.single_destination workload_config ~rng ~graph:g ~cost:Cost.length ~sink:0
  in
  Array.iter
    (fun l -> List.iter (fun (_, dst) -> Alcotest.(check int) "sink" 0 dst) l)
    w.Workload.injections

(* The flat certifier against the tuple-Hashtbl reference in
   [Workload_oracle]: every field of [t], floats bit for bit. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_workload (a : Workload.t) (b : Workload.t) =
  let oa = a.Workload.opt and ob = b.Workload.opt in
  a.Workload.horizon = b.Workload.horizon
  && a.Workload.injections = b.Workload.injections
  && a.Workload.paths = b.Workload.paths
  && a.Workload.activations = b.Workload.activations
  && oa.Workload.deliveries = ob.Workload.deliveries
  && same_bits oa.Workload.total_cost ob.Workload.total_cost
  && same_bits oa.Workload.avg_cost ob.Workload.avg_cost
  && same_bits oa.Workload.avg_hops ob.Workload.avg_hops
  && oa.Workload.max_buffer = ob.Workload.max_buffer
  && oa.Workload.delta = ob.Workload.delta

(* A connected ΘALG overlay, or a unit-disk graph below the critical range
   (usually disconnected, so some pairs have no route). *)
let certify_instance seed =
  let rng = Prng.create (seed + 17) in
  let points = points_of_seed ~min_n:2 ~max_n:30 seed in
  let model = Model.make ~delta:(Prng.float rng 1.) in
  let g =
    if Prng.bool rng then
      Theta_alg.overlay
        (Theta_alg.build ~theta:(Float.pi /. 6.) ~range:(2. *. Udg.critical_range points) points)
    else Udg.build ~range:(0.7 *. Udg.critical_range points) points
  in
  (g, Conflict.build model ~points g, rng)

let test_workload_oracle =
  qtest "certifier = tuple-Hashtbl reference" ~count:300 seed_gen (fun seed ->
      let g, c, rng = certify_instance seed in
      let n = Graph.n g in
      (* Horizons down to 1 make windows >= horizon common. *)
      let horizon = 1 + Prng.int rng (if Prng.bool rng then 12 else 400) in
      let config =
        {
          Workload.horizon;
          attempts = Prng.int rng 300;
          slack = Prng.int rng 25;
          interference_free = Prng.bool rng;
        }
      in
      let cost = if Prng.bool rng then Cost.length else Cost.energy ~kappa:2. in
      let kind = Prng.int rng 6 in
      let num_flows = 1 + Prng.int rng 4 in
      let max_hops = 1 + Prng.int rng 4 in
      let sink = Prng.int rng n in
      let sources = Array.init (1 + Prng.int rng 3) (fun _ -> Prng.int rng n) in
      let period = 1 + Prng.int rng 50 in
      let burst_width = 1 + Prng.int rng period in
      let draw_seed = Prng.int rng 1_000_000 in
      let both gen oracle =
        same_workload (gen ~rng:(Prng.create draw_seed)) (oracle ~rng:(Prng.create draw_seed))
      in
      let conflict = c and graph = g in
      match kind with
      | 0 ->
          both
            (Workload.generate ~conflict config ~graph ~cost)
            (Workload_oracle.generate ~conflict config ~graph ~cost)
      | 1 ->
          both
            (Workload.flows ~conflict config ~graph ~cost ~num_flows)
            (Workload_oracle.flows ~conflict config ~graph ~cost ~num_flows)
      | 2 ->
          both
            (Workload.flows ~conflict ~max_hops config ~graph ~cost ~num_flows)
            (Workload_oracle.flows ~conflict ~max_hops config ~graph ~cost ~num_flows)
      | 3 ->
          both
            (Workload.single_destination ~conflict config ~graph ~cost ~sink)
            (Workload_oracle.single_destination ~conflict config ~graph ~cost ~sink)
      | 4 ->
          both
            (Workload.single_destination ~conflict ~sources config ~graph ~cost ~sink)
            (Workload_oracle.single_destination ~conflict ~sources config ~graph ~cost ~sink)
      | _ ->
          both
            (Workload.bursty ~conflict config ~graph ~cost ~num_flows ~period ~burst_width)
            (Workload_oracle.bursty ~conflict config ~graph ~cost ~num_flows ~period ~burst_width))

(* B on a hand-built line 0 - 1 - 2, every packet from 0 to the sink 2.
   With slack 0 each packet crosses edge 0 at t0 + 1 and edge 1 at t0 + 2,
   and horizon 4 leaves t0 in {0, 1}. *)
let line_workload ~slack ~seed =
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.); (1, 2, 1.) ] in
  Workload.single_destination ~sources:[| 0 |]
    { Workload.horizon = 4; attempts = 2; slack; interference_free = false }
    ~rng:(Prng.create seed) ~graph:g ~cost:Cost.length ~sink:2

let test_workload_buffer_tie () =
  (* Packets injected at 0 and 1: the first leaves node 1 at step 2, the
     step the second arrives there.  Departures apply first, so B = 1. *)
  let seed =
    List.find
      (fun seed ->
        let w = line_workload ~slack:0 ~seed in
        w.Workload.injections.(0) <> [] && w.Workload.injections.(1) <> [])
      (List.init 50 (fun i -> i + 1))
  in
  let w = line_workload ~slack:0 ~seed in
  Alcotest.(check (array (list int)))
    "edge 0 at 1 and 2, edge 1 at 2 and 3"
    [| []; [ 0 ]; [ 0; 1 ]; [ 1 ] |]
    w.Workload.activations;
  Alcotest.(check int) "two certified" 2 w.Workload.opt.Workload.deliveries;
  Alcotest.(check int) "leave and arrive at one step" 1 w.Workload.opt.Workload.max_buffer

let test_workload_buffer_overlap () =
  (* Slack 1 and horizon 4 force t0 = 0: the second packet waits at node 0
     until step 2 while the first is still there during step 0. *)
  let w = line_workload ~slack:1 ~seed:1 in
  Alcotest.(check (array (list int)))
    "edge 0 at 1 and 2, edge 1 at 2 and 3"
    [| []; [ 0 ]; [ 0; 1 ]; [ 1 ] |]
    w.Workload.activations;
  Alcotest.(check int) "both injected at 0" 2 (List.length w.Workload.injections.(0));
  Alcotest.(check int) "overlapping stays" 2 w.Workload.opt.Workload.max_buffer

(* Certification of the random-MAC route instance (n = 150, horizon 8000,
   2 flows, seed 1: what [adhoc_sim route -n 150 --scenario random-mac
   --horizon 8000] certifies), in minor words per attempt: 136 measured,
   against 1,987 for the reference certifier's tuple tables, per-attempt
   path lists and sorted event lists. *)
let test_workload_allocation () =
  let rng = Prng.create 1 in
  let points = Adhoc_pointset.Generators.uniform rng 150 in
  let range = 1.5 *. Udg.critical_range points in
  let g = Theta_alg.overlay (Theta_alg.build ~theta:(Float.pi /. 6.) ~range points) in
  let horizon = 8000 in
  let config = { Workload.horizon; attempts = 2 * horizon; slack = 12; interference_free = false } in
  let before = Adhoc_obs.Gcstat.read () in
  let w = Workload.flows config ~rng ~graph:g ~cost:(Cost.energy ~kappa:2.) ~num_flows:2 in
  let after = Adhoc_obs.Gcstat.read () in
  let words = (Adhoc_obs.Gcstat.delta ~before ~after).Adhoc_obs.Gcstat.minor_words in
  let per_attempt = words /. float_of_int config.Workload.attempts in
  Alcotest.(check bool) "thousands certified" true (w.Workload.opt.Workload.deliveries > 1000);
  if per_attempt > 200. then
    Alcotest.failf "%.0f minor words for %d attempts: %.1f per attempt, over 200" words
      config.Workload.attempts per_attempt

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_engine_conservation =
  qtest "packets conserved: injected = delivered + remaining" ~count:30 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let rng = Prng.create seed in
      let w =
        Workload.flows ~conflict:c
          { workload_config with Workload.interference_free = true }
          ~rng ~graph:g ~cost:Cost.length ~num_flows:2
      in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      let stats = Engine.run_mac_given ~cooldown:100 ~graph:g ~cost:Cost.length ~params w in
      stats.Engine.injected = stats.Engine.delivered + stats.Engine.remaining
      && stats.Engine.injected + stats.Engine.dropped
         = w.Workload.opt.Workload.deliveries)

let test_engine_mac_conservation =
  qtest "conservation under random MAC with collisions" ~count:20 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let rng = Prng.create seed in
      let w = Workload.flows workload_config ~rng ~graph:g ~cost:Cost.length ~num_flows:2 in
      let mac = Mac.random_interference ~rng:(Prng.create (seed + 1)) c in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      let stats =
        Engine.run_with_mac ~cooldown:100 ~collisions:c ~graph:g ~cost:Cost.length ~params ~mac w
      in
      stats.Engine.injected = stats.Engine.delivered + stats.Engine.remaining
      && stats.Engine.failed_sends <= stats.Engine.sends)

let test_engine_line_delivers () =
  (* 0 -- 1 -- 2; inject at 0 toward 2; all edges always active. *)
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.); (1, 2, 1.) ] in
  let horizon = 50 in
  let injections = Array.make horizon [] in
  injections.(0) <- [ (0, 2); (0, 2); (0, 2) ];
  let activations = Array.make horizon [ 0; 1 ] in
  let w =
    {
      Workload.horizon;
      injections;
      paths = Array.make horizon [];
      activations;
      opt =
        {
          Workload.deliveries = 3;
          total_cost = 6.;
          avg_cost = 2.;
          avg_hops = 2.;
          max_buffer = 3;
          delta = 2;
        };
    }
  in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  let stats = Engine.run_mac_given ~graph:g ~cost:Cost.length ~params w in
  Alcotest.(check int) "all delivered" 3 stats.Engine.delivered;
  Alcotest.(check int) "nothing remains" 0 stats.Engine.remaining;
  Alcotest.(check bool) "ratios" true (Float.equal (Engine.throughput_ratio stats w.Workload.opt) 1.)

let test_engine_deterministic () =
  let run () =
    let _, g, c = overlay_instance 9 in
    let rng = Prng.create 9 in
    let w = Workload.flows workload_config ~rng ~graph:g ~cost:Cost.length ~num_flows:2 in
    let mac = Mac.random_interference ~rng:(Prng.create 10) c in
    let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
    Engine.run_with_mac ~collisions:c ~graph:g ~cost:Cost.length ~params ~mac w
  in
  Alcotest.(check bool) "same stats" true (run () = run ())

let test_engine_capacity_drops () =
  (* Tiny capacity and an isolated pair with no activations: everything
     beyond the cap is dropped at injection. *)
  let g = Graph.of_edges ~n:2 [ (0, 1, 1.) ] in
  let horizon = 10 in
  let injections = Array.make horizon [] in
  for t = 0 to horizon - 1 do
    injections.(t) <- [ (0, 1) ]
  done;
  let w =
    {
      Workload.horizon;
      injections;
      paths = Array.make horizon [];
      activations = Array.make horizon [];
      opt =
        {
          Workload.deliveries = 10;
          total_cost = 10.;
          avg_cost = 1.;
          avg_hops = 1.;
          max_buffer = 1;
          delta = 1;
        };
    }
  in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:3 in
  let stats = Engine.run_mac_given ~graph:g ~cost:Cost.length ~params w in
  Alcotest.(check int) "admitted up to cap" 3 stats.Engine.injected;
  Alcotest.(check int) "rest dropped" 7 stats.Engine.dropped

let test_cost_accounting () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 2.) ] in
  let horizon = 5 in
  let injections = Array.make horizon [] in
  injections.(0) <- [ (0, 1) ];
  let activations = Array.make horizon [ 0 ] in
  let w =
    {
      Workload.horizon;
      injections;
      paths = Array.make horizon [];
      activations;
      opt =
        {
          Workload.deliveries = 1;
          total_cost = 4.;
          avg_cost = 4.;
          avg_hops = 1.;
          max_buffer = 1;
          delta = 1;
        };
    }
  in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  let stats = Engine.run_mac_given ~graph:g ~cost:(Cost.energy ~kappa:2.) ~params w in
  Alcotest.(check int) "delivered" 1 stats.Engine.delivered;
  check_close "energy cost 2^2" 4. stats.Engine.total_cost;
  check_close "cost ratio" 1. (Engine.cost_ratio stats w.Workload.opt)


(* ------------------------------------------------------------------ *)
(* Packet / Tracked_engine                                             *)

let test_packet_lifecycle () =
  let p = Packet.make ~id:7 ~src:1 ~dst:2 ~now:10 in
  Alcotest.(check bool) "in flight" false (Packet.delivered p);
  Alcotest.check_raises "latency before delivery"
    (Invalid_argument "Packet.latency: packet not delivered") (fun () ->
      ignore (Packet.latency p));
  p.Packet.delivered_at <- 25;
  Alcotest.(check bool) "delivered" true (Packet.delivered p);
  Alcotest.(check int) "latency" 15 (Packet.latency p)

let tracked_line_workload () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.); (1, 2, 1.) ] in
  let horizon = 50 in
  let injections = Array.make horizon [] in
  injections.(0) <- [ (0, 2); (0, 2); (0, 2) ];
  let activations = Array.make horizon [ 0; 1 ] in
  ( g,
    {
      Workload.horizon;
      injections;
      paths = Array.make horizon [];
      activations;
      opt =
        {
          Workload.deliveries = 3;
          total_cost = 6.;
          avg_cost = 2.;
          avg_hops = 2.;
          max_buffer = 3;
          delta = 2;
        };
    } )

let test_tracked_engine_matches_engine () =
  let g, w = tracked_line_workload () in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  let plain = Engine.run_mac_given ~graph:g ~cost:Cost.length ~params w in
  let tracked = Tracked_engine.run_mac_given ~graph:g ~cost:Cost.length ~params w in
  Alcotest.(check int) "same deliveries" plain.Engine.delivered
    tracked.Tracked_engine.base.Engine.delivered;
  Alcotest.(check int) "same sends" plain.Engine.sends
    tracked.Tracked_engine.base.Engine.sends;
  Alcotest.(check bool) "same cost" true
    (plain.Engine.total_cost = tracked.Tracked_engine.base.Engine.total_cost)

let test_tracked_engine_latency () =
  let g, w = tracked_line_workload () in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  let r = Tracked_engine.run_mac_given ~graph:g ~cost:Cost.length ~params w in
  Alcotest.(check int) "all delivered" 3 r.Tracked_engine.base.Engine.delivered;
  Alcotest.(check bool) "positive latency" true (r.Tracked_engine.latency_mean > 0.);
  Alcotest.(check bool) "p95 >= median" true
    (r.Tracked_engine.latency_p95 >= r.Tracked_engine.latency_median);
  (* Every packet needs 2 hops on the line. *)
  check_close "hops" 2. r.Tracked_engine.hops_mean;
  check_close "energy" 2. r.Tracked_engine.energy_per_delivered;
  List.iter
    (fun p ->
      Alcotest.(check bool) "delivered" true (Packet.delivered p);
      Alcotest.(check int) "hop count" 2 p.Packet.hops)
    r.Tracked_engine.packets

let test_tracked_engine_random =
  qtest "tracked = plain engine on random instances" ~count:20 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let rng = Prng.create seed in
      let w =
        Workload.flows ~conflict:c
          { workload_config with Workload.interference_free = true }
          ~rng ~graph:g ~cost:Cost.length ~num_flows:2
      in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      let plain =
        Engine.run_mac_given ~cooldown:100 ~graph:g ~cost:Cost.length ~params w
      in
      let tracked =
        Tracked_engine.run_mac_given ~cooldown:100 ~graph:g ~cost:Cost.length ~params w
      in
      plain.Engine.delivered = tracked.Tracked_engine.base.Engine.delivered
      && plain.Engine.sends = tracked.Tracked_engine.base.Engine.sends
      && plain.Engine.remaining = tracked.Tracked_engine.base.Engine.remaining)

(* ------------------------------------------------------------------ *)
(* Geographic routing                                                  *)

let geo_instance seed =
  let points = points_of_seed ~min_n:10 ~max_n:40 seed in
  let range = 1.5 *. Adhoc_topo.Udg.critical_range points in
  (points, Adhoc_topo.Udg.build ~range points, Adhoc_topo.Gabriel.build ~range points)

let test_geo_greedy_route_valid =
  qtest "greedy routes walk graph edges and shrink distance" ~count:60 seed_gen (fun seed ->
      let points, g, _ = geo_instance seed in
      let rng = Prng.create (seed + 5) in
      let n = Array.length points in
      let src = Prng.int rng n and dst = Prng.int rng n in
      QCheck2.assume (src <> dst);
      match Geo.greedy g points ~src ~dst with
      | None -> true
      | Some r ->
          let rec check = function
            | a :: (b :: _ as rest) ->
                Graph.mem_edge g a b
                && Adhoc_geom.Point.dist points.(b) points.(dst)
                   < Adhoc_geom.Point.dist points.(a) points.(dst)
                && check rest
            | _ -> true
          in
          List.hd r.Geo.nodes = src
          && List.nth r.Geo.nodes r.Geo.hops = dst
          && check r.Geo.nodes
          && r.Geo.recovery_hops = 0)

let test_geo_face_delivers =
  qtest "greedy_face always delivers on connected instances" ~count:60 seed_gen (fun seed ->
      let points, g, gabriel = geo_instance seed in
      QCheck2.assume (Adhoc_graph.Components.is_connected gabriel);
      let rng = Prng.create (seed + 6) in
      let n = Array.length points in
      let src = Prng.int rng n and dst = Prng.int rng n in
      QCheck2.assume (src <> dst);
      match Geo.greedy_face ~planar:gabriel g points ~src ~dst with
      | None -> false
      | Some r -> List.hd r.Geo.nodes = src && List.nth r.Geo.nodes r.Geo.hops = dst)

let test_geo_route_metrics () =
  let points = [| Point.make 0. 0.; Point.make 1. 0.; Point.make 2. 0. |] in
  let g = Graph.geometric points [ (0, 1); (1, 2) ] in
  match Geo.greedy g points ~src:0 ~dst:2 with
  | None -> Alcotest.fail "expected route"
  | Some r ->
      Alcotest.(check int) "hops" 2 r.Geo.hops;
      check_close "length" 2. r.Geo.length;
      check_close "energy" 2. r.Geo.energy

let test_geo_local_minimum () =
  (* A void: the source's only neighbour is farther from the destination,
     so greedy fails; the detour goes up and over. *)
  let points =
    [| Point.make 0. 0.; Point.make (-0.5) 1.5; Point.make 1.5 2.0; Point.make 3. 0. |]
  in
  let g = Graph.geometric points [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check bool) "greedy stuck" true (Geo.greedy g points ~src:0 ~dst:3 = None);
  match Geo.greedy_face ~planar:g g points ~src:0 ~dst:3 with
  | None -> Alcotest.fail "face routing should recover"
  | Some r -> Alcotest.(check bool) "used recovery" true (r.Geo.recovery_hops > 0)

let test_geo_success_rate_bounds =
  qtest "success rate in [0,1]" ~count:20 seed_gen (fun seed ->
      let points, g, _ = geo_instance seed in
      let rate = Geo.success_rate g points ~rng:(Prng.create seed) ~trials:50 in
      rate >= 0. && rate <= 1.)


(* ------------------------------------------------------------------ *)
(* Dynamic engine / bursty workloads                                   *)

let test_dynamic_engine_static_equals_epochs =
  qtest "one long epoch = several epochs of the same graph" ~count:15 seed_gen (fun seed ->
      let points, g, c = overlay_instance seed in
      ignore points;
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      let rng = Prng.create seed in
      let n = Graph.n g in
      let flow = (Prng.int rng n, Prng.int rng n) in
      let injections t = if t < 200 && t mod 3 = 0 then [ flow ] else [] in
      let mk epochs =
        Dynamic_engine.run ~epochs ~injections ~cost:Cost.length ~params ()
      in
      let one = mk [ { Dynamic_engine.graph = g; conflict = c; steps = 400 } ] in
      let split =
        mk
          [
            { Dynamic_engine.graph = g; conflict = c; steps = 150 };
            { Dynamic_engine.graph = g; conflict = c; steps = 250 };
          ]
      in
      one = split)

let test_dynamic_engine_survives_partition () =
  (* Epoch 1: only edge (0,1); epoch 2: only edge (1,2).  A packet for 2
     injected at step 0 must cross both epochs. *)
  let g1 = Graph.of_edges ~n:3 [ (0, 1, 1.) ] in
  let g2 = Graph.of_edges ~n:3 [ (1, 2, 1.) ] in
  let points = [| Point.make 0. 0.; Point.make 1. 0.; Point.make 2. 0. |] in
  let c1 = Conflict.build (Model.make ~delta:0.1) ~points g1 in
  let c2 = Conflict.build (Model.make ~delta:0.1) ~points g2 in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  let injections t = if t = 0 then [ (0, 2) ] else [] in
  let stats =
    Dynamic_engine.run
      ~epochs:
        [
          { Dynamic_engine.graph = g1; conflict = c1; steps = 10 };
          { Dynamic_engine.graph = g2; conflict = c2; steps = 10 };
        ]
      ~injections ~cost:Cost.length ~params ()
  in
  Alcotest.(check int) "delivered across the change" 1 stats.Engine.delivered;
  Alcotest.(check int) "nothing stuck" 0 stats.Engine.remaining

let test_dynamic_engine_conservation =
  qtest "dynamic engine conserves packets" ~count:15 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:20 in
      let rng = Prng.create (seed + 2) in
      let n = Graph.n g in
      let injections t =
        if t < 100 then [ (Prng.int rng n, Prng.int rng n) ] else []
      in
      let stats =
        Dynamic_engine.run
          ~epochs:
            [
              { Dynamic_engine.graph = g; conflict = c; steps = 150 };
              { Dynamic_engine.graph = g; conflict = c; steps = 150 };
            ]
          ~injections ~cost:Cost.length ~params ()
      in
      stats.Engine.injected = stats.Engine.delivered + stats.Engine.remaining)

let test_epoch_of_points () =
  let rng = Prng.create 3 in
  let points = Adhoc_pointset.Generators.uniform rng 30 in
  let e = Dynamic_engine.epoch_of_points ~steps:10 points in
  Alcotest.(check int) "steps" 10 e.Dynamic_engine.steps;
  Alcotest.(check bool) "connected overlay" true
    (Adhoc_graph.Components.is_connected e.Dynamic_engine.graph)

let test_bursty_workload () =
  let _, g, _ = overlay_instance 8 in
  let rng = Prng.create 8 in
  let config = { Workload.horizon = 400; attempts = 300; slack = 10; interference_free = false } in
  let w =
    Workload.bursty config ~rng ~graph:g ~cost:Cost.length ~num_flows:2 ~period:100
      ~burst_width:10
  in
  (* All injection times fall inside the first 10 steps of a 100-step window. *)
  Array.iteri
    (fun t l ->
      if l <> [] && t mod 100 >= 10 then
        Alcotest.failf "injection outside burst window at %d" t)
    w.Workload.injections;
  Alcotest.(check bool) "certified some packets" true (w.Workload.opt.Workload.deliveries > 0)

let test_bursty_validation () =
  let _, g, _ = overlay_instance 9 in
  let rng = Prng.create 9 in
  let config = { Workload.horizon = 400; attempts = 10; slack = 10; interference_free = false } in
  Alcotest.check_raises "bad burst"
    (Invalid_argument "Workload.bursty: need 0 < burst_width <= period") (fun () ->
      ignore
        (Workload.bursty config ~rng ~graph:g ~cost:Cost.length ~num_flows:1 ~period:10
           ~burst_width:20))


(* ------------------------------------------------------------------ *)
(* Queueing disciplines                                                *)

let queueing_workload seed =
  let _, g, _ = overlay_instance seed in
  let rng = Prng.create seed in
  let config = { Workload.horizon = 300; attempts = 0; slack = 0; interference_free = false } in
  (g, Workload.path_flows config ~rng ~graph:g ~cost:Cost.length ~num_flows:3 ~rate:0.3)

let test_queueing_all_delivered =
  qtest "every discipline eventually delivers everything" ~count:15 seed_gen (fun seed ->
      let g, w = queueing_workload seed in
      List.for_all
        (fun d ->
          let s = Queueing.run ~cooldown:2000 ~graph:g ~cost:Cost.length d w in
          s.Queueing.delivered = s.Queueing.injected)
        [
          Queueing.Fifo;
          Queueing.Lifo;
          Queueing.Furthest_to_go;
          Queueing.Nearest_to_go;
          Queueing.Longest_in_system;
        ])

let test_queueing_injection_counts =
  qtest "injected matches the workload paths" ~count:15 seed_gen (fun seed ->
      let g, w = queueing_workload seed in
      let expected = Array.fold_left (fun a l -> a + List.length l) 0 w.Workload.paths in
      let s = Queueing.run ~graph:g ~cost:Cost.length Queueing.Fifo w in
      s.Queueing.injected = expected && s.Queueing.delivered <= expected)

let test_queueing_single_path () =
  (* One flow on a line: FIFO latency equals path length once uncontended. *)
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.); (1, 2, 1.) ] in
  let horizon = 10 in
  let injections = Array.make horizon [] in
  let paths = Array.make horizon [] in
  injections.(0) <- [ (0, 2) ];
  paths.(0) <- [ (0, 2, [ 0; 1 ]) ];
  let w =
    {
      Workload.horizon;
      injections;
      paths;
      activations = Array.make horizon [];
      opt =
        {
          Workload.deliveries = 1;
          total_cost = 2.;
          avg_cost = 2.;
          avg_hops = 2.;
          max_buffer = 1;
          delta = 1;
        };
    }
  in
  let s = Queueing.run ~cooldown:10 ~graph:g ~cost:Cost.length Queueing.Fifo w in
  Alcotest.(check int) "delivered" 1 s.Queueing.delivered;
  check_close "two edge costs" 2. s.Queueing.total_cost;
  (* Injected at end of step 0; crosses at steps 1 and 2. *)
  check_close "latency" 2. s.Queueing.avg_latency

let test_queueing_ftg_priority () =
  (* Two packets contend at node 1 for edge (1,2): FTG sends the one with
     more remaining hops first. *)
  let g = Graph.of_edges ~n:4 [ (0, 1, 1.); (1, 2, 1.); (2, 3, 1.) ] in
  let horizon = 5 in
  let injections = Array.make horizon [] in
  let paths = Array.make horizon [] in
  injections.(0) <- [ (1, 3); (1, 2) ];
  (* Long packet listed second: discipline, not insertion order, must pick. *)
  paths.(0) <- [ (1, 2, [ 1 ]); (1, 3, [ 1; 2 ]) ];
  let w =
    {
      Workload.horizon;
      injections;
      paths;
      activations = Array.make horizon [];
      opt =
        {
          Workload.deliveries = 2;
          total_cost = 3.;
          avg_cost = 1.5;
          avg_hops = 1.5;
          max_buffer = 2;
          delta = 1;
        };
    }
  in
  let run d = Queueing.run ~cooldown:10 ~graph:g ~cost:Cost.length d w in
  let ftg = run Queueing.Furthest_to_go in
  let ntg = run Queueing.Nearest_to_go in
  Alcotest.(check int) "both delivered (ftg)" 2 ftg.Queueing.delivered;
  Alcotest.(check int) "both delivered (ntg)" 2 ntg.Queueing.delivered;
  (* FTG: long packet goes first, so total latency is smaller for it. *)
  Alcotest.(check bool) "ftg latency <= ntg latency" true
    (ftg.Queueing.avg_latency <= ntg.Queueing.avg_latency +. 1e-9)

let test_queueing_names () =
  Alcotest.(check string) "fifo" "FIFO" (Queueing.discipline_name Queueing.Fifo);
  Alcotest.(check string) "ftg" "FTG" (Queueing.discipline_name Queueing.Furthest_to_go)


(* ------------------------------------------------------------------ *)
(* Anycast                                                             *)

let test_anycast_line () =
  (* Line 0-1-2-3-4; group {0, 4}: packets from 1 go left, from 3 go right. *)
  let g =
    Graph.of_edges ~n:5 [ (0, 1, 1.); (1, 2, 1.); (2, 3, 1.); (3, 4, 1.) ]
  in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  let injections t = if t = 0 then [ (1, 0); (3, 0) ] else [] in
  let s =
    Anycast.run ~cooldown:20 ~graph:g ~cost:Cost.length ~params
      ~groups:[| [| 0; 4 |] |] ~injections ~horizon:5 ()
  in
  Alcotest.(check int) "both delivered" 2 s.Anycast.delivered;
  Alcotest.(check int) "one hop each" 2 s.Anycast.sends;
  let absorbed v = Option.value ~default:0 (List.assoc_opt v s.Anycast.per_member) in
  Alcotest.(check int) "left sink" 1 (absorbed 0);
  Alcotest.(check int) "right sink" 1 (absorbed 4)

let test_anycast_conservation =
  qtest "anycast conserves packets" ~count:15 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let n = Graph.n g in
      QCheck2.assume (n >= 4);
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:30 in
      let rng = Prng.create seed in
      let groups = [| [| 0 |]; [| 1; 2 |] |] in
      let injections t =
        if t < 100 then [ (Prng.int rng n, Prng.int rng 2) ] else []
      in
      let s =
        Anycast.run ~cooldown:300 ~pad:c ~graph:g ~cost:Cost.length ~params ~groups
          ~injections ~horizon:100 ()
      in
      s.Anycast.injected = s.Anycast.delivered + s.Anycast.remaining
      && List.for_all (fun (v, _) -> v <= 2) s.Anycast.per_member)

let test_anycast_injection_at_member () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 1.) ] in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  let injections t = if t = 0 then [ (1, 0) ] else [] in
  let s =
    Anycast.run ~graph:g ~cost:Cost.length ~params ~groups:[| [| 1 |] |] ~injections
      ~horizon:3 ()
  in
  Alcotest.(check int) "absorbed immediately" 1 s.Anycast.delivered;
  Alcotest.(check int) "no transmissions" 0 s.Anycast.sends

let test_anycast_validation () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 1.) ] in
  let params = Balancing.params ~threshold:0. ~gamma:0. ~capacity:10 in
  Alcotest.check_raises "empty group" (Invalid_argument "Anycast.run: empty group")
    (fun () ->
      ignore
        (Anycast.run ~graph:g ~cost:Cost.length ~params ~groups:[| [||] |]
           ~injections:(fun _ -> [])
           ~horizon:1 ()))


(* ------------------------------------------------------------------ *)
(* Time-varying edge costs                                             *)

let test_dynamic_costs_steer_packets () =
  (* Diamond: 0 -(1)- {1,2} -(1)- 3.  The adversary makes the top route
     expensive in phase A and the bottom route expensive in phase B; the
     balancing rule must route around whichever side is costly. *)
  let g =
    Graph.of_edges ~n:4 [ (0, 1, 1.); (1, 3, 1.); (0, 2, 1.); (2, 3, 1.) ]
  in
  (* edge ids: 0 = (0,1) top-in, 1 = (1,3) top-out, 2 = (0,2), 3 = (2,3). *)
  let top = [ 0; 1 ] in
  let horizon = 400 in
  let injections = Array.make horizon [] in
  for t = 0 to horizon - 1 do
    if t mod 2 = 0 then injections.(t) <- [ (0, 3) ]
  done;
  let w =
    {
      Workload.horizon;
      injections;
      paths = Array.make horizon [];
      activations = Array.make horizon [ 0; 1; 2; 3 ];
      opt =
        {
          Workload.deliveries = 200;
          total_cost = 400.;
          avg_cost = 2.;
          avg_hops = 2.;
          max_buffer = 2;
          delta = 2;
        };
    }
  in
  let params = Balancing.params ~threshold:1. ~gamma:1. ~capacity:50 in
  let run_with ~expensive_top =
    let cost_at ~step:_ ~edge =
      if List.mem edge top = expensive_top then 20. else 1.
    in
    Engine.run_mac_given ~cooldown:400 ~cost_at ~graph:g ~cost:Cost.length ~params w
  in
  let a = run_with ~expensive_top:true in
  let b = run_with ~expensive_top:false in
  (* Both deliver; the expensive side is avoided, so total cost is close to
     the cheap-route cost (2 per packet), far from the expensive one. *)
  Alcotest.(check bool) "A delivers most" true (a.Engine.delivered > 150);
  Alcotest.(check bool) "B delivers most" true (b.Engine.delivered > 150);
  let per_pkt (s : Engine.stats) = s.Engine.total_cost /. float_of_int s.Engine.delivered in
  Alcotest.(check bool) "A avoids the expensive top" true (per_pkt a < 5.);
  Alcotest.(check bool) "B avoids the expensive bottom" true (per_pkt b < 5.)

let test_dynamic_costs_default_matches_static () =
  let _, g, c = overlay_instance 3 in
  let rng = Prng.create 3 in
  let w =
    Workload.flows ~conflict:c
      { workload_config with Workload.interference_free = true }
      ~rng ~graph:g ~cost:Cost.length ~num_flows:2
  in
  let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
  let plain = Engine.run_mac_given ~cooldown:100 ~graph:g ~cost:Cost.length ~params w in
  let via_hook =
    Engine.run_mac_given ~cooldown:100
      ~cost_at:(fun ~step:_ ~edge -> Cost.length (Graph.length g edge))
      ~graph:g ~cost:Cost.length ~params w
  in
  Alcotest.(check bool) "identical stats" true (plain = via_hook)


(* ------------------------------------------------------------------ *)
(* Conflict structures must cover the graph they are used with          *)

let test_conflict_must_match_graph () =
  let points, g, _ = overlay_instance 5 in
  let m = Graph.num_edges g in
  let model = Model.make ~delta:0.5 in
  let u, v = Graph.endpoints g 0 in
  let smaller =
    Conflict.build model ~points
      (Graph.of_edges ~n:(Graph.n g) [ (u, v, Graph.length g 0) ])
  in
  let larger =
    Conflict.build model ~points (Udg.build ~range:(4. *. Udg.critical_range points) points)
  in
  Alcotest.(check bool) "the larger structure is larger" true
    (Array.length larger.Conflict.sets > m);
  let rng = Prng.create 5 in
  let w = Workload.flows workload_config ~rng ~graph:g ~cost:Cost.length ~num_flows:2 in
  let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
  let entries =
    [
      ( "Engine.run_mac_given",
        fun c -> ignore (Engine.run_mac_given ~pad:c ~graph:g ~cost:Cost.length ~params w) );
      ( "Engine.run_with_mac",
        fun c ->
          ignore
            (Engine.run_with_mac ~collisions:c ~graph:g ~cost:Cost.length ~params ~mac:Mac.all w)
      );
      ( "Dynamic_engine.run",
        fun c ->
          ignore
            (Dynamic_engine.run
               ~epochs:[ { Dynamic_engine.graph = g; conflict = c; steps = 20 } ]
               ~injections:(fun _ -> [])
               ~cost:Cost.length ~params ()) );
      ( "Quantized_engine.run_mac_given",
        fun c ->
          ignore
            (Quantized_engine.run_mac_given ~pad:c ~quantum:1 ~graph:g ~cost:Cost.length
               ~params w) );
    ]
  in
  List.iter
    (fun (entry, run) ->
      List.iter
        (fun (size, c) ->
          let msg =
            Printf.sprintf "%s: the conflict structure covers %d edges but the graph has %d"
              entry (Array.length c.Conflict.sets) m
          in
          Alcotest.check_raises
            (Printf.sprintf "%s, %s conflict" entry size)
            (Invalid_argument msg)
            (fun () -> run c))
        [ ("smaller", smaller); ("larger", larger) ])
    entries

(* ------------------------------------------------------------------ *)
(* Quantized control exchange                                          *)

let test_quantized_zero_matches_engine =
  qtest "quantum 0 = continuous exchange = plain engine" ~count:10 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let rng = Prng.create seed in
      let w =
        Workload.flows ~conflict:c
          { workload_config with Workload.interference_free = true }
          ~rng ~graph:g ~cost:Cost.length ~num_flows:2
      in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      let plain_log = Adhoc_obs.Event.create () in
      let plain =
        Engine.run_mac_given ~cooldown:200
          ~obs:(Adhoc_obs.create ~events:plain_log ())
          ~pad:c ~graph:g ~cost:Cost.length ~params w
      in
      let q0_log = Adhoc_obs.Event.create () in
      let q0 =
        (Quantized_engine.run_mac_given ~cooldown:200
           ~obs:(Adhoc_obs.create ~events:q0_log ())
           ~pad:c ~quantum:0 ~graph:g ~cost:Cost.length ~params w)
          .Quantized_engine.base
      in
      (* Every stats field, the float cost bit for bit; and the same event
         stream once the quantized engine's own adverts are set aside. *)
      let without_cost (s : Engine.stats) = { s with Engine.total_cost = 0. } in
      let not_advert = function Adhoc_obs.Event.Height_advert _ -> false | _ -> true in
      without_cost q0 = without_cost plain
      && Int64.equal
           (Int64.bits_of_float q0.Engine.total_cost)
           (Int64.bits_of_float plain.Engine.total_cost)
      && List.filter not_advert (Array.to_list (Adhoc_obs.Event.to_array q0_log))
         = Array.to_list (Adhoc_obs.Event.to_array plain_log))

let test_quantized_control_monotone =
  qtest "control traffic falls as the quantum grows" ~count:10 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let rng = Prng.create seed in
      let w =
        Workload.flows ~conflict:c
          { workload_config with Workload.interference_free = true }
          ~rng ~graph:g ~cost:Cost.length ~num_flows:2
      in
      let params = Balancing.params ~threshold:2. ~gamma:0.1 ~capacity:50 in
      let ctrl q =
        (Quantized_engine.run_mac_given ~cooldown:100 ~pad:c ~quantum:q ~graph:g
           ~cost:Cost.length ~params w)
          .Quantized_engine.control_messages
      in
      ctrl 0 >= ctrl 2 && ctrl 2 >= ctrl 8)

let test_quantized_conservation =
  qtest "quantized engine conserves packets" ~count:10 seed_gen (fun seed ->
      let _, g, c = overlay_instance seed in
      let rng = Prng.create (seed + 4) in
      let w =
        Workload.flows ~conflict:c
          { workload_config with Workload.interference_free = true }
          ~rng ~graph:g ~cost:Cost.length ~num_flows:2
      in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      let s =
        Quantized_engine.run_mac_given ~cooldown:200 ~pad:c ~quantum:3 ~graph:g
          ~cost:Cost.length ~params w
      in
      s.Quantized_engine.base.Engine.injected
      = s.Quantized_engine.base.Engine.delivered + s.Quantized_engine.base.Engine.remaining)


(* ------------------------------------------------------------------ *)
(* Parallel decision fan-out: decide-parallel / apply-sequential must
   reproduce the sequential path bit-for-bit at every pool size — not
   just the aggregate stats but the full observable record: the
   adhoc-events/1 log bytes and the adhoc-live/1 snapshot stream. *)

module Pool = Adhoc_util.Pool

let jobs_sweep =
  let base = [ 1; 2; 4 ] in
  let e = env_jobs () in
  if List.mem e base then base else base @ [ e ]

(* Run [f] against a sink carrying a fresh event log and live recorder;
   return its result plus both streams' JSONL bytes (round-tripped
   through a scratch file — the writers are out_channel based). *)
let with_streams f =
  let events = Adhoc_obs.Event.create () in
  let live = Adhoc_obs.Live.create ~window:25 () in
  let sink = Adhoc_obs.create ~events ~live () in
  let result = f sink in
  let tmp = Filename.temp_file "adhoc-par" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let slurp file =
        let ic = open_in_bin file in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      Adhoc_obs.Event.save_jsonl events tmp;
      let ev = slurp tmp in
      Adhoc_obs.Live.save_jsonl live tmp;
      let lv = slurp tmp in
      (result, ev, lv))

let pool_invariant run =
  let reference = with_streams (fun sink -> run ~obs:sink ~pool:None) in
  List.for_all
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          with_streams (fun sink -> run ~obs:sink ~pool:(Some p)) = reference))
    jobs_sweep

let par_workload seed c g =
  let rng = Prng.create seed in
  Workload.flows ~conflict:c
    { workload_config with Workload.interference_free = true }
    ~rng ~graph:g ~cost:Cost.length ~num_flows:2

let test_engine_pool_invariant =
  qtest "mac-given engine jobs-invariant (stats, events, live)" ~count:10 seed_gen
    (fun seed ->
      let _, g, c = overlay_instance seed in
      let w = par_workload seed c g in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      pool_invariant (fun ~obs ~pool ->
          Engine.run_mac_given ~cooldown:100 ~obs ?pool ~pad:c ~graph:g ~cost:Cost.length
            ~params w))

let test_engine_mac_pool_invariant =
  qtest "random-MAC engine jobs-invariant (stats, events, live)" ~count:10 seed_gen
    (fun seed ->
      let _, g, c = overlay_instance seed in
      let rng = Prng.create seed in
      let w = Workload.flows workload_config ~rng ~graph:g ~cost:Cost.length ~num_flows:2 in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      pool_invariant (fun ~obs ~pool ->
          (* A fresh identically-seeded MAC per run: the MAC draw is part
             of the replayed input, not of the engine under test. *)
          let mac = Mac.random_interference ~rng:(Prng.create (seed + 1)) c in
          Engine.run_with_mac ~cooldown:100 ~obs ?pool ~collisions:c ~graph:g
            ~cost:Cost.length ~params ~mac w))

let test_dynamic_pool_invariant =
  qtest "dynamic engine jobs-invariant (stats, events, live)" ~count:10 seed_gen
    (fun seed ->
      let _, g, c = overlay_instance seed in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:20 in
      let rng = Prng.create (seed + 1) in
      let n = Graph.n g in
      let flow = (Prng.int rng n, Prng.int rng n) in
      let flow' = (Prng.int rng n, Prng.int rng n) in
      let injections t =
        if t >= 150 then [] else if t mod 3 = 0 then [ flow ] else [ flow' ]
      in
      pool_invariant (fun ~obs ~pool ->
          Dynamic_engine.run ~obs ?pool
            ~epochs:[ { Dynamic_engine.graph = g; conflict = c; steps = 300 } ]
            ~injections ~cost:Cost.length ~params ()))

let test_quantized_pool_invariant =
  qtest "quantized engine jobs-invariant (stats, events, live)" ~count:10 seed_gen
    (fun seed ->
      let _, g, c = overlay_instance seed in
      let w = par_workload seed c g in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      List.for_all
        (fun quantum ->
          pool_invariant (fun ~obs ~pool ->
              Quantized_engine.run_mac_given ~cooldown:100 ~obs ?pool ~pad:c ~quantum
                ~graph:g ~cost:Cost.length ~params w))
        [ 0; 2 ])

let test_tracked_pool_invariant =
  qtest "tracked engine jobs-invariant (stats, events, live)" ~count:10 seed_gen
    (fun seed ->
      let _, g, c = overlay_instance seed in
      let w = par_workload seed c g in
      let params = Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50 in
      pool_invariant (fun ~obs ~pool ->
          Tracked_engine.run_mac_given ~cooldown:100 ~obs ?pool ~pad:c ~graph:g
            ~cost:Cost.length ~params w))

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)

(* Regression: a run that delivers nothing must not report a *perfect*
   ratio.  cost_ratio is undefined (nan) without deliveries; throughput
   against an empty OPT is 0, not 1. *)
let test_ratios_edge_cases () =
  let stats =
    {
      Engine.steps = 10;
      injected = 0;
      dropped = 0;
      delivered = 0;
      sends = 0;
      failed_sends = 0;
      total_cost = 0.;
      peak_height = 0;
      remaining = 0;
    }
  in
  let opt_zero =
    { Workload.deliveries = 0; total_cost = 0.; avg_cost = 0.; avg_hops = 0.; max_buffer = 1; delta = 1 }
  in
  check_close "tput with opt=0" 0. (Engine.throughput_ratio stats opt_zero);
  Alcotest.(check bool) "cost undefined with no deliveries" true
    (Float.is_nan (Engine.cost_ratio stats opt_zero));
  let opt =
    { opt_zero with Workload.deliveries = 10; avg_cost = 2. }
  in
  check_close "tput zero" 0. (Engine.throughput_ratio stats opt);
  Alcotest.(check bool) "no deliveries, real OPT: still undefined" true
    (Float.is_nan (Engine.cost_ratio stats opt));
  (* Costs spent on failed sends alone must not look perfect either. *)
  let wasted = { stats with Engine.sends = 7; failed_sends = 7; total_cost = 30. } in
  Alcotest.(check bool) "wasted cost, no deliveries: undefined" true
    (Float.is_nan (Engine.cost_ratio wasted opt));
  let stats = { stats with Engine.delivered = 5; total_cost = 30. } in
  check_close "tput half" 0.5 (Engine.throughput_ratio stats opt);
  check_close "cost ratio 3" 3. (Engine.cost_ratio stats opt)

let test_flows_max_hops_honored =
  qtest "max_hops flows stay short when short pairs exist" ~count:20 seed_gen (fun seed ->
      let _, g, _ = overlay_instance seed in
      QCheck2.assume (Graph.n g >= 8);
      let rng = Prng.create seed in
      let config = { workload_config with Workload.horizon = 100; attempts = 50 } in
      let w =
        Workload.flows ~max_hops:2 config ~rng ~graph:g ~cost:Cost.length ~num_flows:3
      in
      (* Every injected pair should be within 2 hops (the retry budget is
         generous and small graphs always have adjacent pairs). *)
      Array.for_all
        (fun l ->
          List.for_all
            (fun (src, dst) -> (Adhoc_graph.Bfs.hops g ~src).(dst) <= 2)
            l)
        w.Workload.injections)

let test_workload_bad_configs () =
  let _, g, _ = overlay_instance 2 in
  let rng = Prng.create 2 in
  Alcotest.check_raises "zero horizon"
    (Invalid_argument "Workload.generate: horizon must be positive") (fun () ->
      ignore
        (Workload.generate
           { Workload.horizon = 0; attempts = 1; slack = 1; interference_free = false }
           ~rng ~graph:g ~cost:Cost.length));
  Alcotest.check_raises "interference-free needs conflict"
    (Invalid_argument "Workload.generate: interference_free requires a conflict structure")
    (fun () ->
      ignore
        (Workload.generate
           { Workload.horizon = 10; attempts = 1; slack = 1; interference_free = true }
           ~rng ~graph:g ~cost:Cost.length));
  Alcotest.check_raises "path_flows bad rate"
    (Invalid_argument "Workload.path_flows: rate must be in (0,1]") (fun () ->
      ignore
        (Workload.path_flows
           { Workload.horizon = 10; attempts = 0; slack = 0; interference_free = false }
           ~rng ~graph:g ~cost:Cost.length ~num_flows:1 ~rate:0.))

(* ------------------------------------------------------------------ *)
(* Pinned stats: the incremental decision cache, conflict-adjacency MAC
   and scratch-array rewrites must reproduce the original engine
   bit-for-bit.  These values were recorded from the pre-rewrite engine
   on a fixed instance (uniform seed 77, n = 24). *)

let pinned_instance () =
  let points = Adhoc_pointset.Generators.uniform (Prng.create 77) 24 in
  let range = 2. *. Udg.critical_range points in
  let g = Theta_alg.overlay (Theta_alg.build ~theta:(Float.pi /. 6.) ~range points) in
  let c = Conflict.build (Model.make ~delta:0.5) ~points g in
  (g, c)

let check_pinned name (s : Engine.stats) ~injected ~dropped ~delivered ~sends ~failed
    ~cost ~peak ~remaining =
  Alcotest.(check int) (name ^ ": steps") 500 s.Engine.steps;
  Alcotest.(check int) (name ^ ": injected") injected s.Engine.injected;
  Alcotest.(check int) (name ^ ": dropped") dropped s.Engine.dropped;
  Alcotest.(check int) (name ^ ": delivered") delivered s.Engine.delivered;
  Alcotest.(check int) (name ^ ": sends") sends s.Engine.sends;
  Alcotest.(check int) (name ^ ": failed") failed s.Engine.failed_sends;
  check_close ~eps:1e-12 (name ^ ": cost") cost s.Engine.total_cost;
  Alcotest.(check int) (name ^ ": peak") peak s.Engine.peak_height;
  Alcotest.(check int) (name ^ ": remaining") remaining s.Engine.remaining

let pinned_params = lazy (Balancing.params ~threshold:1. ~gamma:0.1 ~capacity:50)

let test_engine_pinned_given () =
  let g, c = pinned_instance () in
  let config =
    { Workload.horizon = 300; attempts = 200; slack = 10; interference_free = true }
  in
  let w =
    Workload.flows ~conflict:c config ~rng:(Prng.create 77) ~graph:g ~cost:Cost.length
      ~num_flows:2
  in
  let s =
    Engine.run_mac_given ~cooldown:200 ~pad:c ~graph:g ~cost:Cost.length
      ~params:(Lazy.force pinned_params) w
  in
  check_pinned "given+pad" s ~injected:155 ~dropped:0 ~delivered:132 ~sends:296 ~failed:0
    ~cost:80.380614734523775 ~peak:7 ~remaining:23

let pinned_mac_workload (g, _c) =
  let config =
    { Workload.horizon = 300; attempts = 200; slack = 10; interference_free = false }
  in
  Workload.flows config ~rng:(Prng.create 78) ~graph:g ~cost:Cost.length ~num_flows:2

let test_engine_pinned_csma () =
  let g, c = pinned_instance () in
  let w = pinned_mac_workload (g, c) in
  let mac = Mac.csma ~rng:(Prng.create 79) c in
  let s =
    Engine.run_with_mac ~cooldown:200 ~collisions:c ~graph:g ~cost:Cost.length
      ~params:(Lazy.force pinned_params) ~mac w
  in
  check_pinned "csma+collisions" s ~injected:200 ~dropped:0 ~delivered:152 ~sends:279
    ~failed:0 ~cost:74.551424651997593 ~peak:6 ~remaining:48

let test_engine_pinned_random_mac () =
  let g, c = pinned_instance () in
  let w = pinned_mac_workload (g, c) in
  let mac = Mac.random_interference ~rng:(Prng.create 80) c in
  let s =
    Engine.run_with_mac ~cooldown:200 ~collisions:c ~graph:g ~cost:Cost.length
      ~params:(Lazy.force pinned_params) ~mac w
  in
  check_pinned "random-mac" s ~injected:123 ~dropped:77 ~delivered:6 ~sends:59 ~failed:4
    ~cost:14.846177076478661 ~peak:50 ~remaining:117

let () =
  Alcotest.run "routing"
    [
      ( "buffers",
        [
          case "inject cap" test_buffers_inject_cap;
          case "remove" test_buffers_remove;
          case "force add" test_buffers_force_add;
          test_buffers_nonzero_iteration;
          case "incremental max height" test_buffers_max_height_incremental;
          case "watcher" test_buffers_watcher;
          test_buffers_matrix_oracle;
          test_sparse_matrix_oracle;
        ] );
      ( "balancing",
        [
          case "argmax" test_balancing_picks_argmax;
          case "strict threshold" test_balancing_threshold_strict;
          case "apply" test_balancing_apply;
          case "best either" test_balancing_best_either;
          test_balancing_order_independent;
          test_balancing_matches_oracle;
          test_balancing_apply_conserves;
          case "derive 3.1" test_derive_3_1;
          case "derive 3.3" test_derive_3_3;
          case "epsilon monotone" test_derive_epsilon_monotone;
          case "validation" test_params_validation;
        ] );
      ( "workload",
        [
          test_workload_counts;
          test_workload_activations_unique;
          test_workload_interference_free;
          test_workload_stats_sane;
          case "flows concentrate" test_workload_flows_concentrate;
          case "single destination" test_workload_single_destination;
          test_workload_oracle;
          case "B: departure before arrival" test_workload_buffer_tie;
          case "B: overlapping stays" test_workload_buffer_overlap;
          case "certification allocation" test_workload_allocation;
        ] );
      ( "engine",
        [
          test_engine_conservation;
          test_engine_mac_conservation;
          case "line delivers" test_engine_line_delivers;
          case "deterministic" test_engine_deterministic;
          case "capacity drops" test_engine_capacity_drops;
          case "cost accounting" test_cost_accounting;
          case "pinned stats: given+pad" test_engine_pinned_given;
          case "pinned stats: csma" test_engine_pinned_csma;
          case "pinned stats: random mac" test_engine_pinned_random_mac;
        ] );
      ( "tracked",
        [
          case "packet lifecycle" test_packet_lifecycle;
          case "matches engine" test_tracked_engine_matches_engine;
          case "latency metrics" test_tracked_engine_latency;
          test_tracked_engine_random;
        ] );
      ( "dynamic",
        [
          test_dynamic_engine_static_equals_epochs;
          case "survives partition" test_dynamic_engine_survives_partition;
          test_dynamic_engine_conservation;
          case "epoch_of_points" test_epoch_of_points;
          case "bursty windows" test_bursty_workload;
          case "bursty validation" test_bursty_validation;
        ] );
      ( "edge-cases",
        [
          case "ratio edge cases" test_ratios_edge_cases;
          test_flows_max_hops_honored;
          case "bad configs rejected" test_workload_bad_configs;
        ] );
      ( "conflicts",
        [ case "conflict must cover the graph" test_conflict_must_match_graph ] );
      ( "quantized",
        [
          test_quantized_zero_matches_engine;
          test_quantized_control_monotone;
          test_quantized_conservation;
        ] );
      ( "parallel",
        [
          test_engine_pool_invariant;
          test_engine_mac_pool_invariant;
          test_dynamic_pool_invariant;
          test_quantized_pool_invariant;
          test_tracked_pool_invariant;
        ] );
      ( "dynamic-costs",
        [
          case "costs steer packets" test_dynamic_costs_steer_packets;
          case "hook defaults to static" test_dynamic_costs_default_matches_static;
        ] );
      ( "anycast",
        [
          case "line with two sinks" test_anycast_line;
          test_anycast_conservation;
          case "inject at member" test_anycast_injection_at_member;
          case "validation" test_anycast_validation;
        ] );
      ( "queueing",
        [
          test_queueing_all_delivered;
          test_queueing_injection_counts;
          case "single path" test_queueing_single_path;
          case "FTG priority" test_queueing_ftg_priority;
          case "names" test_queueing_names;
        ] );
      ( "geo",
        [
          test_geo_greedy_route_valid;
          test_geo_face_delivers;
          case "route metrics" test_geo_route_metrics;
          case "local minimum recovery" test_geo_local_minimum;
          test_geo_success_rate_bounds;
        ] );
    ]
