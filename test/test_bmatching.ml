module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng

let square () = Graph.of_edge_list 4 [ (0, 1); (1, 2); (2, 3); (0, 3) ]

let test_empty () =
  let g = square () in
  let m = BM.empty g ~capacity:[| 1; 1; 1; 1 |] in
  Alcotest.(check int) "size" 0 (BM.size m);
  Alcotest.(check (list int)) "no edges" [] (BM.edge_ids m);
  Alcotest.(check int) "residual" 1 (BM.residual m 0);
  Alcotest.(check bool) "not maximal" false (BM.is_maximal m)

let test_of_edge_ids () =
  let g = square () in
  let m = BM.of_edge_ids g ~capacity:[| 1; 1; 1; 1 |] [ 0; 2 ] in
  Alcotest.(check int) "size" 2 (BM.size m);
  Alcotest.(check bool) "mem 0" true (BM.mem m 0);
  Alcotest.(check bool) "mem 1" false (BM.mem m 1);
  Alcotest.(check (list int)) "connections of 0" [ 1 ] (BM.connections m 0);
  Alcotest.(check bool) "maximal" true (BM.is_maximal m);
  Alcotest.(check bool) "saturated" true (BM.saturated m 0)

let test_capacity_enforced () =
  let g = square () in
  Alcotest.check_raises "over capacity"
    (Invalid_argument "Bmatching.of_edge_ids: capacity exceeded") (fun () ->
      ignore (BM.of_edge_ids g ~capacity:[| 1; 1; 1; 1 |] [ 0; 1 ]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Bmatching.of_edge_ids: duplicate edge id")
    (fun () -> ignore (BM.of_edge_ids g ~capacity:[| 2; 2; 2; 2 |] [ 0; 0 ]));
  Alcotest.check_raises "range" (Invalid_argument "Bmatching.of_edge_ids: edge id out of range")
    (fun () -> ignore (BM.of_edge_ids g ~capacity:[| 2; 2; 2; 2 |] [ 9 ]))

let test_b2_allows_two () =
  let g = square () in
  let m = BM.of_edge_ids g ~capacity:[| 2; 2; 2; 2 |] [ 0; 1; 2; 3 ] in
  Alcotest.(check int) "all four" 4 (BM.size m);
  Alcotest.(check int) "degree 2" 2 (BM.degree m 1);
  Alcotest.(check (list int)) "connections sorted" [ 0; 2 ] (BM.connections m 1)

let test_add_remove () =
  let g = square () in
  let m = BM.empty g ~capacity:[| 1; 1; 1; 1 |] in
  let m1 = BM.add m 0 in
  Alcotest.(check int) "added" 1 (BM.size m1);
  Alcotest.(check int) "original untouched" 0 (BM.size m);
  let m2 = BM.remove m1 0 in
  Alcotest.(check int) "removed" 0 (BM.size m2);
  Alcotest.check_raises "remove absent" (Invalid_argument "Bmatching.remove: edge not selected")
    (fun () -> ignore (BM.remove m 0));
  Alcotest.check_raises "add infeasible" (Invalid_argument "Bmatching.add: capacity exceeded")
    (fun () -> ignore (BM.add m1 1))

let test_equal_and_symdiff () =
  let g = square () in
  let a = BM.of_edge_ids g ~capacity:[| 2; 2; 2; 2 |] [ 0; 2 ] in
  let b = BM.of_edge_ids g ~capacity:[| 2; 2; 2; 2 |] [ 2; 0 ] in
  let c = BM.of_edge_ids g ~capacity:[| 2; 2; 2; 2 |] [ 1; 2 ] in
  Alcotest.(check bool) "order irrelevant" true (BM.equal a b);
  Alcotest.(check bool) "different" false (BM.equal a c);
  Alcotest.(check (list int)) "symdiff" [ 0; 1 ] (BM.symmetric_difference a c)

let test_weight () =
  let g = square () in
  let w = Weights.of_array g [| 1.0; 2.0; 3.0; 4.0 |] in
  let m = BM.of_edge_ids g ~capacity:[| 1; 1; 1; 1 |] [ 0; 2 ] in
  Alcotest.(check (float 1e-9)) "weight sum" 4.0 (BM.weight m w)

let test_connection_lists () =
  let g = square () in
  let m = BM.of_edge_ids g ~capacity:[| 1; 1; 1; 1 |] [ 0; 2 ] in
  let lists = BM.connection_lists m in
  Alcotest.(check (list int)) "node 0" [ 1 ] lists.(0);
  Alcotest.(check (list int)) "node 3" [ 2 ] lists.(3)

let test_zero_capacity () =
  let g = square () in
  let m = BM.empty g ~capacity:[| 0; 0; 0; 0 |] in
  Alcotest.(check bool) "maximal trivially" true (BM.is_maximal m);
  Alcotest.check_raises "cannot add" (Invalid_argument "Bmatching.add: capacity exceeded")
    (fun () -> ignore (BM.add m 0))

let prop_construction_respects_capacity =
  QCheck2.Test.make ~name:"valid constructions keep degree <= capacity" ~count:200
    QCheck2.Gen.(
      pair (int_range 0 1000) (list_size (int_range 0 30) (int_range 0 59)))
    (fun (seed, candidate) ->
      let g = Gen.gnm (Prng.create seed) ~n:15 ~m:60 in
      let capacity = Array.make 15 2 in
      let dedup = List.sort_uniq compare candidate in
      match BM.of_edge_ids g ~capacity dedup with
      | m ->
          let ok = ref true in
          for v = 0 to 14 do
            if BM.degree m v > 2 then ok := false
          done;
          !ok
      | exception Invalid_argument _ -> true)

(* a random feasible b-matching: edges offered in a shuffled order,
   each kept when both endpoints still have room *)
let random_matching rng g ~capacity =
  let order = Array.init (Graph.edge_count g) (fun e -> e) in
  Prng.shuffle_in_place rng order;
  let deg = Array.make (Graph.node_count g) 0 in
  let ids =
    Array.fold_left
      (fun acc e ->
        let u, v = Graph.edge_endpoints g e in
        if deg.(u) < capacity.(u) && deg.(v) < capacity.(v) && Prng.bernoulli rng 0.7
        then begin
          deg.(u) <- deg.(u) + 1;
          deg.(v) <- deg.(v) + 1;
          e :: acc
        end
        else acc)
      [] order
  in
  BM.of_edge_ids g ~capacity ids

let prop_connection_lists_match_connections =
  QCheck2.Test.make ~name:"connection_lists = per-node connections, same order"
    ~count:300
    QCheck2.Gen.(triple (int_range 0 100_000) (int_range 1 40) (int_range 0 4))
    (fun (seed, n, density) ->
      let rng = Prng.create seed in
      let m = min (n * (n - 1) / 2) (n * density) in
      let g = Gen.gnm rng ~n ~m in
      let capacity = Array.init n (fun _ -> Prng.int rng 4) in
      let mt = random_matching rng g ~capacity in
      BM.connection_lists mt = Array.init n (BM.connections mt))

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "of_edge_ids" `Quick test_of_edge_ids;
    Alcotest.test_case "capacity enforced" `Quick test_capacity_enforced;
    Alcotest.test_case "b=2 allows two" `Quick test_b2_allows_two;
    Alcotest.test_case "add/remove" `Quick test_add_remove;
    Alcotest.test_case "equal and symdiff" `Quick test_equal_and_symdiff;
    Alcotest.test_case "weight" `Quick test_weight;
    Alcotest.test_case "connection lists" `Quick test_connection_lists;
    Alcotest.test_case "zero capacity" `Quick test_zero_capacity;
    QCheck_alcotest.to_alcotest prop_construction_respects_capacity;
    QCheck_alcotest.to_alcotest prop_connection_lists_match_connections;
  ]
