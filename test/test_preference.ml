module P = Preference
module Prng = Owp_util.Prng

let diamond () =
  (* 0-1, 0-2, 1-2, 1-3, 2-3 *)
  Graph.of_edge_list 4 [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3) ]

let test_create_and_rank () =
  let g = diamond () in
  let lists = [| [| 2; 1 |]; [| 0; 3; 2 |]; [| 3; 0; 1 |]; [| 1; 2 |] |] in
  let p = P.create g ~quota:[| 1; 2; 2; 1 |] ~lists in
  Alcotest.(check int) "rank 0->2" 0 (P.rank p 0 2);
  Alcotest.(check int) "rank 0->1" 1 (P.rank p 0 1);
  Alcotest.(check int) "rank 1->2" 2 (P.rank p 1 2);
  Alcotest.(check bool) "preferred" true (P.preferred p 1 0 2);
  Alcotest.(check (array int)) "list back" [| 3; 0; 1 |] (P.list p 2);
  Alcotest.(check int) "list_len" 3 (P.list_len p 1)

let test_rank_not_neighbor () =
  let g = diamond () in
  let p = P.random (Prng.create 1) g ~quota:(P.uniform_quota g 2) in
  Alcotest.check_raises "not adjacent" Not_found (fun () -> ignore (P.rank p 0 3))

let test_create_validation () =
  let g = diamond () in
  let bad_len = [| [| 2 |]; [| 0; 3; 2 |]; [| 3; 0; 1 |]; [| 1; 2 |] |] in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Preference.create: list is not a permutation of the neighbourhood")
    (fun () -> ignore (P.create g ~quota:[| 1; 1; 1; 1 |] ~lists:bad_len));
  let non_nbr = [| [| 2; 3 |]; [| 0; 3; 2 |]; [| 3; 0; 1 |]; [| 1; 2 |] |] in
  Alcotest.check_raises "non neighbour"
    (Invalid_argument "Preference.create: list contains a non-neighbour") (fun () ->
      ignore (P.create g ~quota:[| 1; 1; 1; 1 |] ~lists:non_nbr));
  let dup = [| [| 2; 2 |]; [| 0; 3; 2 |]; [| 3; 0; 1 |]; [| 1; 2 |] |] in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Preference.create: duplicate entry in preference list") (fun () ->
      ignore (P.create g ~quota:[| 1; 1; 1; 1 |] ~lists:dup));
  Alcotest.check_raises "negative quota" (Invalid_argument "Preference.create: negative quota")
    (fun () ->
      ignore
        (P.create g ~quota:[| -1; 1; 1; 1 |]
           ~lists:[| [| 2; 1 |]; [| 0; 3; 2 |]; [| 3; 0; 1 |]; [| 1; 2 |] |]))

let test_quota_clamped () =
  let g = diamond () in
  let p = P.random (Prng.create 2) g ~quota:(P.uniform_quota g 10) in
  Alcotest.(check int) "clamped to degree" 2 (P.quota p 0);
  Alcotest.(check int) "clamped to degree 3" 3 (P.quota p 1);
  Alcotest.(check int) "max quota" 3 (P.max_quota p)

let test_of_scores_ordering () =
  let g = diamond () in
  let score _ j = float_of_int j in
  let p = P.of_scores g ~quota:(P.uniform_quota g 2) score in
  (* node 1's neighbours are 0, 2, 3 -> descending score: 3, 2, 0 *)
  Alcotest.(check (array int)) "descending score" [| 3; 2; 0 |] (P.list p 1)

let test_of_scores_tie_break () =
  let g = diamond () in
  let p = P.of_scores g ~quota:(P.uniform_quota g 2) (fun _ _ -> 1.0) in
  (* all tied: lower id first *)
  Alcotest.(check (array int)) "id tie-break" [| 0; 2; 3 |] (P.list p 1)

let test_random_lists_are_permutations () =
  let g = Gen.gnm (Prng.create 7) ~n:40 ~m:120 in
  let p = P.random (Prng.create 8) g ~quota:(P.uniform_quota g 3) in
  for v = 0 to 39 do
    let l = Array.copy (P.list p v) in
    Array.sort compare l;
    Alcotest.(check (array int)) "permutation of neighbourhood" (Graph.neighbor_nodes g v) l
  done

let test_satisfaction_wrappers () =
  let g = diamond () in
  let lists = [| [| 2; 1 |]; [| 0; 3; 2 |]; [| 3; 0; 1 |]; [| 1; 2 |] |] in
  let p = P.create g ~quota:[| 2; 2; 2; 2 |] ~lists in
  (* node 1 connected to its top two: satisfaction 1 *)
  Alcotest.(check (float 1e-9)) "top two" 1.0 (P.satisfaction p 1 [ 0; 3 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (P.satisfaction p 1 []);
  Alcotest.(check bool) "static <= full" true
    (P.static_satisfaction p 1 [ 0; 2 ] <= P.satisfaction p 1 [ 0; 2 ] +. 1e-12)

let test_total_satisfaction () =
  let g = diamond () in
  let lists = [| [| 2; 1 |]; [| 0; 3; 2 |]; [| 3; 0; 1 |]; [| 1; 2 |] |] in
  let p = P.create g ~quota:[| 1; 1; 1; 1 |] ~lists in
  (* match 0-1 and 2-3: nodes 1 and 2 get their top choice (S = 1),
     nodes 0 and 3 their second of two (S = 1 - 1/(1*2) = 1/2) *)
  let conns = [| [ 1 ]; [ 0 ]; [ 3 ]; [ 2 ] |] in
  Alcotest.(check (float 1e-9)) "known total" 3.0 (P.total_satisfaction p conns)

let test_isolated_node () =
  let g = Graph.of_edge_list 3 [ (0, 1) ] in
  let p = P.random (Prng.create 3) g ~quota:(P.uniform_quota g 2) in
  Alcotest.(check int) "quota 0" 0 (P.quota p 2);
  Alcotest.(check (float 1e-9)) "satisfaction 0" 0.0 (P.satisfaction p 2 [])

let test_acyclic_bandwidth () =
  let g = Gen.gnm (Prng.create 11) ~n:30 ~m:90 in
  let p = P.of_metric g ~quota:(P.uniform_quota g 2) (Metric.bandwidth ~seed:1) in
  Alcotest.(check bool) "global ranking is acyclic" true (P.is_acyclic p)

let test_cycle_detected () =
  (* triangle where each prefers the next over the previous *)
  let g = Graph.of_edge_list 3 [ (0, 1); (1, 2); (0, 2) ] in
  let lists = [| [| 1; 2 |]; [| 2; 0 |]; [| 0; 1 |] |] in
  let p = P.create g ~quota:[| 1; 1; 1 |] ~lists in
  (match P.find_preference_cycle p with
  | None -> Alcotest.fail "expected a preference cycle"
  | Some cycle ->
      Alcotest.(check bool) "cycle length >= 3" true (List.length cycle >= 3));
  Alcotest.(check bool) "not acyclic" false (P.is_acyclic p)

let test_cycle_validity () =
  (* whenever a cycle is reported on a random system, verify it *)
  let g = Gen.gnm (Prng.create 21) ~n:25 ~m:80 in
  let p = P.random (Prng.create 22) g ~quota:(P.uniform_quota g 2) in
  match P.find_preference_cycle p with
  | None -> () (* rare but legal *)
  | Some cycle ->
      let arr = Array.of_list cycle in
      let k = Array.length arr in
      Alcotest.(check bool) "length >= 3" true (k >= 3);
      for i = 0 to k - 1 do
        let prev = arr.((i + k - 1) mod k) and cur = arr.(i) and next = arr.((i + 1) mod k) in
        Alcotest.(check bool) "adjacent" true (Graph.mem_edge g cur next);
        Alcotest.(check bool) "prefers next over prev" true (P.preferred p cur next prev)
      done

(* The validation of [create] as it stood with one binary search per
   list entry: nodes in order, length first, then entries in list order
   (non-neighbour before duplicate), quotas last. *)
let reference_error g ~quota ~lists =
  let n = Graph.node_count g in
  let fail m = raise_notrace (Invalid_argument ("Preference.create: " ^ m)) in
  match
    for i = 0 to n - 1 do
      let nbrs = Graph.neighbor_nodes g i in
      if Array.length lists.(i) <> Array.length nbrs then
        fail "list is not a permutation of the neighbourhood";
      let seen = Hashtbl.create 8 in
      Array.iter
        (fun j ->
          if not (Array.mem j nbrs) then fail "list contains a non-neighbour";
          if Hashtbl.mem seen j then fail "duplicate entry in preference list";
          Hashtbl.add seen j ())
        lists.(i)
    done;
    Array.iter (fun b -> if b < 0 then fail "negative quota") quota
  with
  | () -> None
  | exception Invalid_argument m -> Some m

(* Corrupt a few lists (wrong length, a non-neighbour including -1 and
   n, a duplicate) and sometimes a quota: [create] must raise exactly
   the reference's first error, and a valid [create] on the same graph
   afterwards must still rank every entry right. *)
let prop_create_errors =
  QCheck2.Test.make ~name:"create errors = reference, then valid ranks" ~count:500
    QCheck2.Gen.(triple (int_range 0 100_000) (int_range 2 25) (int_range 0 6))
    (fun (seed, n, corruptions) ->
      let rng = Prng.create seed in
      let g = Gen.gnm rng ~n ~m:(Prng.int rng ((n * (n - 1) / 2) + 1)) in
      let good = P.random rng g ~quota:(P.uniform_quota g 2) in
      let valid = Array.init n (fun i -> Array.copy (P.list good i)) in
      let lists = Array.map Array.copy valid in
      let quota = P.uniform_quota g 2 in
      for _ = 1 to corruptions do
        (* few distinct nodes, so one list often carries two faults *)
        let i = Prng.int rng (min n 2) in
        let l = lists.(i) and deg = Graph.degree g i in
        match Prng.int rng 5 with
        | 0 -> lists.(i) <- Array.append l [| Prng.int rng n |]
        | 1 when deg > 0 -> lists.(i) <- Array.sub l 0 (deg - 1)
        | 2 when Array.length l > 0 ->
            let outsiders =
              Array.of_list
                (List.filter
                   (fun j -> not (Graph.mem_edge g i j))
                   (List.init (n + 2) (fun j -> j - 1)))
            in
            l.(Prng.int rng (Array.length l)) <- Prng.pick rng outsiders
        | 3 when Array.length l > 1 ->
            let a = Prng.int rng (Array.length l) and b = Prng.int rng (Array.length l) in
            if a <> b then l.(a) <- l.(b)
        | 4 -> quota.(i) <- -1
        | _ -> ()
      done;
      let got =
        match P.create g ~quota ~lists with
        | _ -> None
        | exception Invalid_argument m -> Some m
      in
      let p = P.create g ~quota:(P.uniform_quota g 2) ~lists:valid in
      let ranks_ok =
        Array.for_all Fun.id
          (Array.init n (fun i ->
               Array.for_all Fun.id (Array.mapi (fun r j -> P.rank p i j = r) valid.(i))
               && Array.for_all Fun.id
                    (Array.mapi
                       (fun s (j, _) -> P.rank_at_slot p i s = P.rank p i j)
                       (Graph.neighbors g i))))
      in
      got = reference_error g ~quota ~lists && ranks_ok)

let suite =
  [
    Alcotest.test_case "create and rank" `Quick test_create_and_rank;
    Alcotest.test_case "rank not neighbour" `Quick test_rank_not_neighbor;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "quota clamped" `Quick test_quota_clamped;
    Alcotest.test_case "of_scores ordering" `Quick test_of_scores_ordering;
    Alcotest.test_case "of_scores tie-break" `Quick test_of_scores_tie_break;
    Alcotest.test_case "random lists are permutations" `Quick test_random_lists_are_permutations;
    Alcotest.test_case "satisfaction wrappers" `Quick test_satisfaction_wrappers;
    Alcotest.test_case "total satisfaction" `Quick test_total_satisfaction;
    Alcotest.test_case "isolated node" `Quick test_isolated_node;
    Alcotest.test_case "acyclic bandwidth" `Quick test_acyclic_bandwidth;
    Alcotest.test_case "cycle detected" `Quick test_cycle_detected;
    Alcotest.test_case "cycle validity" `Quick test_cycle_validity;
    QCheck_alcotest.to_alcotest prop_create_errors;
  ]
