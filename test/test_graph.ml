let build pairs n =
  let b = Graph.Builder.create n in
  List.iter (fun (u, v) -> ignore (Graph.Builder.add_edge b u v)) pairs;
  Graph.Builder.build b

let test_empty_graph () =
  let g = build [] 4 in
  Alcotest.(check int) "nodes" 4 (Graph.node_count g);
  Alcotest.(check int) "edges" 0 (Graph.edge_count g);
  Alcotest.(check int) "degree" 0 (Graph.degree g 0)

let test_builder_dedup () =
  let b = Graph.Builder.create 3 in
  Alcotest.(check bool) "first insert" true (Graph.Builder.add_edge b 0 1);
  Alcotest.(check bool) "duplicate" false (Graph.Builder.add_edge b 0 1);
  Alcotest.(check bool) "reversed duplicate" false (Graph.Builder.add_edge b 1 0);
  Alcotest.(check int) "count" 1 (Graph.Builder.edge_count b);
  Alcotest.(check bool) "mem" true (Graph.Builder.mem_edge b 1 0)

let test_builder_errors () =
  let b = Graph.Builder.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.Builder: self-loop")
    (fun () -> ignore (Graph.Builder.add_edge b 1 1));
  Alcotest.check_raises "range" (Invalid_argument "Graph.Builder: endpoint out of range")
    (fun () -> ignore (Graph.Builder.add_edge b 0 3))

let test_neighbors_sorted () =
  let g = build [ (2, 0); (2, 4); (2, 1); (2, 3) ] 5 in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 3; 4 |] (Graph.neighbor_nodes g 2);
  Alcotest.(check int) "degree" 4 (Graph.degree g 2)

let test_endpoints_normalized () =
  let g = build [ (3, 1) ] 4 in
  Alcotest.(check (pair int int)) "u < v" (1, 3) (Graph.edge_endpoints g 0)

let test_find_edge () =
  let g = build [ (0, 1); (1, 2); (0, 3) ] 4 in
  Alcotest.(check bool) "finds" true (Graph.find_edge g 1 0 <> None);
  Alcotest.(check (option int)) "missing" None (Graph.find_edge g 2 3);
  Alcotest.(check bool) "mem" true (Graph.mem_edge g 0 3);
  (match Graph.find_edge g 1 2 with
  | Some eid -> Alcotest.(check (pair int int)) "right edge" (1, 2) (Graph.edge_endpoints g eid)
  | None -> Alcotest.fail "edge 1-2 not found")

let test_other_endpoint () =
  let g = build [ (0, 1) ] 2 in
  Alcotest.(check int) "other" 1 (Graph.other_endpoint g 0 0);
  Alcotest.(check int) "other rev" 0 (Graph.other_endpoint g 0 1);
  Alcotest.check_raises "not endpoint"
    (Invalid_argument "Graph.other_endpoint: node is not an endpoint") (fun () ->
      let g = build [ (0, 1) ] 3 in
      ignore (Graph.other_endpoint g 0 2))

let test_iter_edges () =
  let g = build [ (0, 1); (1, 2) ] 3 in
  let seen = ref [] in
  Graph.iter_edges g (fun eid u v -> seen := (eid, u, v) :: !seen);
  Alcotest.(check int) "two edges" 2 (List.length !seen);
  List.iter (fun (_, u, v) -> Alcotest.(check bool) "normalized" true (u < v)) !seen

let test_fold_edges () =
  let g = build [ (0, 1); (1, 2); (2, 3) ] 4 in
  let total = Graph.fold_edges g (fun acc _ u v -> acc + u + v) 0 in
  Alcotest.(check int) "fold sum" 9 total

let test_iter_neighbors_edge_ids () =
  let g = build [ (0, 1); (0, 2) ] 3 in
  Graph.iter_neighbors g 0 (fun v eid ->
      Alcotest.(check int) "eid consistent" v (Graph.other_endpoint g eid 0))

let test_max_degree () =
  let g = build [ (0, 1); (0, 2); (0, 3); (1, 2) ] 4 in
  Alcotest.(check int) "max degree" 3 (Graph.max_degree g)

let test_of_edge_list () =
  let g = Graph.of_edge_list 3 [ (0, 1); (1, 0); (1, 2) ] in
  Alcotest.(check int) "coalesced" 2 (Graph.edge_count g)

let test_induced_subgraph () =
  let g = build [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ] 4 in
  let sub, mapping = Graph.induced_subgraph g [| 0; 1; 2 |] in
  Alcotest.(check int) "nodes" 3 (Graph.node_count sub);
  Alcotest.(check int) "edges kept" 3 (Graph.edge_count sub);
  Alcotest.(check (array int)) "mapping" [| 0; 1; 2 |] mapping

let test_complement_degree_sum () =
  let g = build [ (0, 1) ] 3 in
  (* degrees 1,1,0 -> complement degrees 1,1,2 *)
  Alcotest.(check int) "complement" 4 (Graph.complement_degree_sum g)

let prop_adjacency_consistent =
  QCheck2.Test.make ~name:"adjacency mirrors edge list" ~count:100
    QCheck2.Gen.(list_size (int_range 0 40) (pair (int_range 0 11) (int_range 0 11)))
    (fun pairs ->
      let pairs = List.filter (fun (u, v) -> u <> v) pairs in
      let g = Graph.of_edge_list 12 pairs in
      let ok = ref true in
      Graph.iter_edges g (fun eid u v ->
          if Graph.find_edge g u v <> Some eid then ok := false;
          if Graph.find_edge g v u <> Some eid then ok := false);
      (* degree sums to 2m *)
      let degsum = ref 0 in
      for v = 0 to 11 do
        degsum := !degsum + Graph.degree g v
      done;
      !ok && !degsum = 2 * Graph.edge_count g)

(* The builder as it stood before the packed-key table: a tuple-keyed
   Hashtbl, edges in a list, one comparison sort per adjacency.  Kept
   here only as the oracle for the property below. *)
module Ref_builder = struct
  type t = {
    n : int;
    seen : (int * int, unit) Hashtbl.t;
    mutable acc : (int * int) list;
    mutable count : int;
  }

  let create n = { n; seen = Hashtbl.create 64; acc = []; count = 0 }

  let normalize b u v =
    if u = v then invalid_arg "Graph.Builder: self-loop";
    if u < 0 || v < 0 || u >= b.n || v >= b.n then
      invalid_arg "Graph.Builder: endpoint out of range";
    if u < v then (u, v) else (v, u)

  let mem_edge b u v = Hashtbl.mem b.seen (normalize b u v)

  let add_edge b u v =
    let key = normalize b u v in
    if Hashtbl.mem b.seen key then false
    else begin
      Hashtbl.add b.seen key ();
      b.acc <- key :: b.acc;
      b.count <- b.count + 1;
      true
    end

  let build b =
    let edges = Array.of_list (List.rev b.acc) in
    let adj = Array.make b.n [] in
    Array.iteri
      (fun eid (u, v) ->
        adj.(u) <- (v, eid) :: adj.(u);
        adj.(v) <- (u, eid) :: adj.(v))
      edges;
    let adj = Array.map Array.of_list adj in
    Array.iter (fun a -> Array.sort (fun (x, _) (y, _) -> compare x y) a) adj;
    (edges, adj)
end

(* [Ok result] or the [Invalid_argument] message *)
let outcome f = match f () with r -> Ok r | exception Invalid_argument m -> Error m

let prop_builder_matches_reference =
  QCheck2.Test.make ~name:"builder = Hashtbl-and-sort reference" ~count:300
    QCheck2.Gen.(
      int_range 1 60 >>= fun n ->
      pair (return n)
        (list_size (int_range 0 400)
           (triple bool (int_range (-1) n) (int_range (-1) n))))
    (fun (n, ops) ->
      let b = Graph.Builder.create n and r = Ref_builder.create n in
      let same_ops =
        List.for_all
          (fun (add, u, v) ->
            let got, want =
              if add then
                (outcome (fun () -> Graph.Builder.add_edge b u v),
                 outcome (fun () -> Ref_builder.add_edge r u v))
              else
                (outcome (fun () -> Graph.Builder.mem_edge b u v),
                 outcome (fun () -> Ref_builder.mem_edge r u v))
            in
            got = want && Graph.Builder.edge_count b = r.Ref_builder.count)
          ops
      in
      let g = Graph.Builder.build b and edges, adj = Ref_builder.build r in
      same_ops
      && Graph.edges g = edges
      && Array.for_all Fun.id (Array.init n (fun u -> Graph.neighbors g u = adj.(u))))

let suite =
  [
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "builder dedup" `Quick test_builder_dedup;
    Alcotest.test_case "builder errors" `Quick test_builder_errors;
    Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
    Alcotest.test_case "endpoints normalized" `Quick test_endpoints_normalized;
    Alcotest.test_case "find_edge" `Quick test_find_edge;
    Alcotest.test_case "other_endpoint" `Quick test_other_endpoint;
    Alcotest.test_case "iter_edges" `Quick test_iter_edges;
    Alcotest.test_case "fold_edges" `Quick test_fold_edges;
    Alcotest.test_case "iter_neighbors edge ids" `Quick test_iter_neighbors_edge_ids;
    Alcotest.test_case "max_degree" `Quick test_max_degree;
    Alcotest.test_case "of_edge_list" `Quick test_of_edge_list;
    Alcotest.test_case "induced subgraph" `Quick test_induced_subgraph;
    Alcotest.test_case "complement degree sum" `Quick test_complement_degree_sum;
    QCheck_alcotest.to_alcotest prop_adjacency_consistent;
    QCheck_alcotest.to_alcotest prop_builder_matches_reference;
  ]
