module Graph = Adhoc_graph.Graph
module Dijkstra = Adhoc_graph.Dijkstra
module Conflict = Adhoc_interference.Conflict
module Prng = Adhoc_util.Prng

type opt_stats = {
  deliveries : int;
  total_cost : float;
  avg_cost : float;
  avg_hops : float;
  max_buffer : int;
  delta : int;
}

type t = {
  horizon : int;
  injections : (int * int) list array;
  paths : (int * int * int list) list array;
  activations : int list array;
  opt : opt_stats;
}

type config = {
  horizon : int;
  attempts : int;
  slack : int;
  interference_free : bool;
}

(* A certified route for one (src, dst) pair: the shortest path's edge
   list, shared by every [paths] entry of the pair, and the same edges as
   an array for the slot search. *)
type route = Unknown | Unreachable | Route of int list * int array

(* Buffer-occupancy events of the certified schedules, two ints each in
   one growable array: the event's step key, then its code.  A stay of a
   packet for [dest] at [node] over [[from_, until)] is an arrival with
   key [2·from_ + 1] and a departure with key [2·until], so departures
   sort first within a step; the code is [(dest·n + node)·2 + 1] for an
   arrival and [(dest·n + node)·2] for a departure. *)
type events = { mutable data : int array; mutable len : int }

let push_event ev key code =
  if ev.len + 2 > Array.length ev.data then begin
    let data = Array.make (2 * Array.length ev.data) 0 in
    Array.blit ev.data 0 data 0 ev.len;
    ev.data <- data
  end;
  ev.data.(ev.len) <- key;
  ev.data.(ev.len + 1) <- code;
  ev.len <- ev.len + 2

let record_stay ev ~n ~node ~dest ~from_ ~until =
  let pair = (dest * n) + node in
  push_event ev ((2 * from_) + 1) ((2 * pair) + 1);
  push_event ev (2 * until) (2 * pair)

(* B: the largest running height of any (node, dest) over the events in
   (dest, step, departure-before-arrival) order.  Two stable counting
   passes, by step key and then by destination, put each destination's
   events together in step order, so one per-node height array serves
   every destination in turn: a destination's heights are back at zero
   after its last event. *)
let max_buffer ~n ~horizon ev =
  let count = ev.len / 2 and d = ev.data in
  let by_step = Array.make count 0 in
  let bucket = Array.make ((2 * horizon) + 1) 0 in
  for i = 0 to count - 1 do
    let k = d.(2 * i) in
    bucket.(k + 1) <- bucket.(k + 1) + 1
  done;
  for k = 1 to 2 * horizon do
    bucket.(k) <- bucket.(k) + bucket.(k - 1)
  done;
  for i = 0 to count - 1 do
    let k = d.(2 * i) in
    by_step.(bucket.(k)) <- d.((2 * i) + 1);
    bucket.(k) <- bucket.(k) + 1
  done;
  let ordered = Array.make count 0 in
  let bucket = Array.make (n + 1) 0 in
  Array.iter
    (fun code ->
      let dest = (code lsr 1) / n in
      bucket.(dest + 1) <- bucket.(dest + 1) + 1)
    by_step;
  for k = 1 to n do
    bucket.(k) <- bucket.(k) + bucket.(k - 1)
  done;
  Array.iter
    (fun code ->
      let dest = (code lsr 1) / n in
      ordered.(bucket.(dest)) <- code;
      bucket.(dest) <- bucket.(dest) + 1)
    by_step;
  let height = Array.make n 0 in
  let best = ref 1 in
  Array.iter
    (fun code ->
      let node = (code lsr 1) mod n in
      if code land 1 = 0 then height.(node) <- height.(node) - 1
      else begin
        let h = height.(node) + 1 in
        height.(node) <- h;
        if h > !best then best := h
      end)
    ordered;
  !best

(* Whether [e] interferes with none of [reserved]; a closure-free
   [List.for_all], since it runs once per tested slot. *)
let rec clear_of c e = function
  | [] -> true
  | e' :: rest -> (not (Conflict.interfere c e e')) && clear_of c e rest

let generate_with ~pick_pair ?pick_time ?conflict config ~rng ~graph ~cost =
  if config.horizon <= 0 then invalid_arg "Workload.generate: horizon must be positive";
  if config.interference_free && conflict = None then
    invalid_arg "Workload.generate: interference_free requires a conflict structure";
  let n = Graph.n graph in
  if n < 2 then invalid_arg "Workload.generate: need at least two nodes";
  let m = Graph.num_edges graph in
  let horizon = config.horizon in
  (* Slot occupancy: one bitset over [0, horizon) per edge, allocated on
     the edge's first reservation. *)
  let occupied = Array.make m Bytes.empty in
  let is_occupied e s =
    let b = occupied.(e) in
    Bytes.length b > 0 && (Char.code (Bytes.get b (s lsr 3)) lsr (s land 7)) land 1 = 1
  in
  let occupy e s =
    if Bytes.length occupied.(e) = 0 then occupied.(e) <- Bytes.make ((horizon + 7) lsr 3) '\000';
    let b = occupied.(e) in
    Bytes.set b (s lsr 3) (Char.unsafe_chr (Char.code (Bytes.get b (s lsr 3)) lor (1 lsl (s land 7))))
  in
  (* Edges reserved per step, kept only for the interference check. *)
  let check_conflicts = match conflict with Some c when config.interference_free -> Some c | _ -> None in
  let reserved_at = Array.make (if check_conflicts = None then 0 else horizon) [] in
  let compatible e step =
    (not (is_occupied e step))
    &&
    match check_conflicts with Some c -> clear_of c e reserved_at.(step) | None -> true
  in
  let injections = Array.make horizon [] in
  let paths = Array.make horizon [] in
  (* Routes per (src, dst), filled lazily from one Dijkstra run per source. *)
  let sources = Array.make n None in
  let route src dst =
    let sp, row =
      match sources.(src) with
      | Some s -> s
      | None ->
          let s = (Dijkstra.run graph ~cost ~src, Array.make n Unknown) in
          sources.(src) <- Some s;
          s
    in
    match row.(dst) with
    | Unknown ->
        let r =
          match Dijkstra.path_edges sp dst with
          | None -> Unreachable
          | Some edges -> Route (edges, Array.of_list edges)
        in
        row.(dst) <- r;
        r
    | r -> r
  in
  (* Slot chosen for each hop of the current attempt; a simple path has at
     most n − 1 hops. *)
  let slot = Array.make n 0 in
  let events = { data = Array.make 512 0; len = 0 } in
  let deliveries = ref 0 in
  let total_cost = ref 0. in
  let total_hops = ref 0 in
  for _ = 1 to config.attempts do
    let src, dst = pick_pair rng in
    if src <> dst then begin
      match route src dst with
      | Unknown | Unreachable -> ()
      | Route (edges, hops) ->
          let len = Array.length hops in
          let window = len + config.slack in
          if window < horizon then begin
            let t0 =
              match pick_time with
              | None -> Prng.int rng (horizon - window)
              | Some f -> min (f rng) (horizon - window - 1)
            in
            (* Greedy earliest-slot reservation within [t0+1, t0+window]. *)
            let last = min (t0 + window) (horizon - 1) in
            let rec find e s = if s > last then -1 else if compatible e s then s else find e (s + 1) in
            let rec reserve i cur =
              i = len
              ||
              let s = find hops.(i) (cur + 1) in
              s >= 0
              && begin
                slot.(i) <- s;
                reserve (i + 1) s
              end
            in
            if reserve 0 t0 then begin
              for i = 0 to len - 1 do
                let e = hops.(i) and s = slot.(i) in
                occupy e s;
                if check_conflicts <> None then reserved_at.(s) <- e :: reserved_at.(s)
              done;
              injections.(t0) <- (src, dst) :: injections.(t0);
              paths.(t0) <- (src, dst, edges) :: paths.(t0);
              incr deliveries;
              total_hops := !total_hops + len;
              (* Walk the schedule to record buffer stays.  Slots rise
                 strictly and the path is simple, so each hop ends a stay
                 of positive length at a node other than [dst]. *)
              let node = ref src and arrive = ref t0 in
              for i = 0 to len - 1 do
                let e = hops.(i) and s = slot.(i) in
                record_stay events ~n ~node:!node ~dest:dst ~from_:!arrive ~until:s;
                node := Graph.other_endpoint graph e !node;
                arrive := s;
                total_cost := !total_cost +. cost (Graph.length graph e)
              done
            end
          end
    end
  done;
  (* Per-step activations in ascending edge order, read off the bitsets
     from the highest edge down. *)
  let activations = Array.make horizon [] in
  for e = m - 1 downto 0 do
    let b = occupied.(e) in
    for byte = 0 to Bytes.length b - 1 do
      let bits = Char.code (Bytes.get b byte) in
      if bits <> 0 then
        for k = 0 to 7 do
          if (bits lsr k) land 1 = 1 then begin
            let s = (byte lsl 3) + k in
            activations.(s) <- e :: activations.(s)
          end
        done
    done
  done;
  (* δ: max activated edges sharing a node in one step. *)
  let delta = ref 1 in
  let incident = Array.make n 0 in
  Array.iter
    (fun edges ->
      List.iter
        (fun e ->
          let u = Graph.edge_u graph e and v = Graph.edge_v graph e in
          incident.(u) <- incident.(u) + 1;
          incident.(v) <- incident.(v) + 1;
          delta := max !delta (max incident.(u) incident.(v)))
        edges;
      List.iter
        (fun e ->
          incident.(Graph.edge_u graph e) <- 0;
          incident.(Graph.edge_v graph e) <- 0)
        edges)
    activations;
  let d = !deliveries in
  {
    horizon;
    injections;
    paths;
    activations;
    opt =
      {
        deliveries = d;
        total_cost = !total_cost;
        avg_cost = (if d = 0 then 0. else !total_cost /. float_of_int d);
        avg_hops = (if d = 0 then 0. else float_of_int !total_hops /. float_of_int d);
        max_buffer = max_buffer ~n ~horizon events;
        delta = !delta;
      };
  }

let generate ?conflict config ~rng ~graph ~cost =
  let n = Graph.n graph in
  let pick_pair rng =
    let src = Prng.int rng n in
    let dst = Prng.int rng n in
    (src, dst)
  in
  generate_with ~pick_pair ?conflict config ~rng ~graph ~cost

let flows ?conflict ?max_hops config ~rng ~graph ~cost ~num_flows =
  if num_flows < 1 then invalid_arg "Workload.flows: need at least one flow";
  let n = Graph.n graph in
  let hop_ok =
    match max_hops with
    | None -> fun _ _ -> true
    | Some k ->
        let hops = Hashtbl.create 8 in
        fun src dst ->
          let d =
            match Hashtbl.find_opt hops src with
            | Some d -> d
            | None ->
                let d = Adhoc_graph.Bfs.hops graph ~src in
                Hashtbl.add hops src d;
                d
          in
          d.(dst) <= k
  in
  let pairs =
    Array.init num_flows (fun _ ->
        let draw () =
          let src = Prng.int rng n in
          let rec pick () =
            let dst = Prng.int rng n in
            if dst = src && n > 1 then pick () else dst
          in
          (src, pick ())
        in
        let rec retry k =
          let src, dst = draw () in
          if k = 0 || hop_ok src dst then (src, dst) else retry (k - 1)
        in
        retry 200)
  in
  let pick_pair rng = pairs.(Prng.int rng num_flows) in
  generate_with ~pick_pair ?conflict config ~rng ~graph ~cost

let single_destination ?conflict ?sources config ~rng ~graph ~cost ~sink =
  let n = Graph.n graph in
  if sink < 0 || sink >= n then invalid_arg "Workload.single_destination: sink out of range";
  let pick_pair =
    match sources with
    | None -> fun rng -> (Prng.int rng n, sink)
    | Some srcs ->
        if Array.length srcs = 0 then invalid_arg "Workload.single_destination: empty sources";
        fun rng -> (srcs.(Prng.int rng (Array.length srcs)), sink)
  in
  generate_with ~pick_pair ?conflict config ~rng ~graph ~cost

let bursty ?conflict config ~rng ~graph ~cost ~num_flows ~period ~burst_width =
  if period <= 0 || burst_width <= 0 || burst_width > period then
    invalid_arg "Workload.bursty: need 0 < burst_width <= period";
  let n = Graph.n graph in
  let pairs =
    Array.init num_flows (fun _ ->
        let src = Prng.int rng n in
        let rec pick () =
          let dst = Prng.int rng n in
          if dst = src && n > 1 then pick () else dst
        in
        (src, pick ()))
  in
  let pick_pair rng = pairs.(Prng.int rng num_flows) in
  (* Injection times land only inside the burst window of each period. *)
  let pick_time rng =
    let periods = max 1 (config.horizon / period) in
    let p = Prng.int rng periods in
    (p * period) + Prng.int rng burst_width
  in
  generate_with ~pick_pair ~pick_time ?conflict config ~rng ~graph ~cost

let path_flows config ~rng ~graph ~cost ~num_flows ~rate =
  if rate <= 0. || rate > 1. then invalid_arg "Workload.path_flows: rate must be in (0,1]";
  if num_flows < 1 then invalid_arg "Workload.path_flows: need at least one flow";
  let n = Graph.n graph in
  if n < 2 then invalid_arg "Workload.path_flows: need at least two nodes";
  let horizon = config.horizon in
  (* Fixed shortest path per flow. *)
  let flows =
    Array.init num_flows (fun _ ->
        let rec draw attempts =
          let src = Prng.int rng n in
          let dst = Prng.int rng n in
          if src = dst && attempts > 0 then draw (attempts - 1)
          else begin
            let sp = Dijkstra.run graph ~cost ~src in
            match Dijkstra.path_edges sp dst with
            | Some path when path <> [] -> (src, dst, path)
            | _ -> if attempts > 0 then draw (attempts - 1) else (src, dst, [])
          end
        in
        draw 50)
  in
  let injections = Array.make horizon [] in
  let paths = Array.make horizon [] in
  let injected = ref 0 in
  for t = 0 to horizon - 1 do
    Array.iter
      (fun (src, dst, path) ->
        if path <> [] && Prng.uniform rng < rate then begin
          injections.(t) <- (src, dst) :: injections.(t);
          paths.(t) <- (src, dst, path) :: paths.(t);
          incr injected
        end)
      flows
  done;
  {
    horizon;
    injections;
    paths;
    activations = Array.make horizon [];
    (* Not a certified workload: the opt block only records the injection
       count; competitive ratios are meaningless here. *)
    opt =
      {
        deliveries = !injected;
        total_cost = 0.;
        avg_cost = 0.;
        avg_hops = 0.;
        max_buffer = 1;
        delta = 1;
      };
  }
