module IntSet = Set.Make (Int)

type t = {
  graph : Graph.t;
  capacity : int array;
  selected : IntSet.t; (* edge ids *)
  deg : int array; (* matched degree per node *)
}

let check_capacity_array g capacity =
  if Array.length capacity <> Graph.node_count g then
    invalid_arg "Bmatching: capacity arity mismatch";
  Array.iter (fun b -> if b < 0 then invalid_arg "Bmatching: negative capacity") capacity

let empty g ~capacity =
  check_capacity_array g capacity;
  {
    graph = g;
    capacity = Array.copy capacity;
    selected = IntSet.empty;
    deg = Array.make (Graph.node_count g) 0;
  }

let add t eid =
  if eid < 0 || eid >= Graph.edge_count t.graph then
    invalid_arg "Bmatching.add: edge id out of range";
  if IntSet.mem eid t.selected then invalid_arg "Bmatching.add: edge already selected";
  let u, v = Graph.edge_endpoints t.graph eid in
  if t.deg.(u) >= t.capacity.(u) || t.deg.(v) >= t.capacity.(v) then
    invalid_arg "Bmatching.add: capacity exceeded";
  let deg = Array.copy t.deg in
  deg.(u) <- deg.(u) + 1;
  deg.(v) <- deg.(v) + 1;
  { t with selected = IntSet.add eid t.selected; deg }

let remove t eid =
  if not (IntSet.mem eid t.selected) then invalid_arg "Bmatching.remove: edge not selected";
  let u, v = Graph.edge_endpoints t.graph eid in
  let deg = Array.copy t.deg in
  deg.(u) <- deg.(u) - 1;
  deg.(v) <- deg.(v) - 1;
  { t with selected = IntSet.remove eid t.selected; deg }

(* Single mutable pass: [add] copies the degree array for functional
   updates, which would make bulk construction quadratic.  Membership is
   tracked in a flat flag array and the set is built once at the end with
   [of_list] (sort + linear rebuild), so bulk construction stays cheap
   even for the 10^5-edge matchings the scale experiments produce. *)
let of_edge_ids g ~capacity ids =
  check_capacity_array g capacity;
  let deg = Array.make (Graph.node_count g) 0 in
  let seen = Bytes.make (Graph.edge_count g) '\000' in
  List.iter
    (fun eid ->
      if eid < 0 || eid >= Graph.edge_count g then
        invalid_arg "Bmatching.of_edge_ids: edge id out of range";
      if Bytes.get seen eid <> '\000' then
        invalid_arg "Bmatching.of_edge_ids: duplicate edge id";
      Bytes.set seen eid '\001';
      let u, v = Graph.edge_endpoints g eid in
      if deg.(u) >= capacity.(u) || deg.(v) >= capacity.(v) then
        invalid_arg "Bmatching.of_edge_ids: capacity exceeded";
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    ids;
  { graph = g; capacity = Array.copy capacity; selected = IntSet.of_list ids; deg }

let graph t = t.graph
let capacity t i = t.capacity.(i)
let size t = IntSet.cardinal t.selected
let mem t eid = IntSet.mem eid t.selected
let edge_ids t = IntSet.elements t.selected
let degree t i = t.deg.(i)
let residual t i = t.capacity.(i) - t.deg.(i)
let saturated t i = residual t i <= 0

let connections t i =
  Graph.neighbors t.graph i
  |> Array.to_list
  |> List.filter_map (fun (v, eid) -> if IntSet.mem eid t.selected then Some v else None)

(* one pass: mark the selected edges in a flat byte array, then walk
   each node's sorted neighbour array backwards, consing marked
   partners, so every list comes out ascending like [connections] *)
let connection_lists t =
  let g = t.graph in
  let marked = Bytes.make (Graph.edge_count g) '\000' in
  IntSet.iter (fun eid -> Bytes.unsafe_set marked eid '\001') t.selected;
  Array.init (Graph.node_count g) (fun i ->
      let nb = Graph.neighbors g i in
      let acc = ref [] in
      for k = Array.length nb - 1 downto 0 do
        let v, eid = Array.unsafe_get nb k in
        if Bytes.unsafe_get marked eid <> '\000' then acc := v :: !acc
      done;
      !acc)

let weight t w =
  IntSet.fold (fun eid acc -> acc +. Weights.weight w eid) t.selected 0.0

let is_maximal t =
  let ok = ref true in
  Graph.iter_edges t.graph (fun eid u v ->
      if (not (IntSet.mem eid t.selected)) && residual t u > 0 && residual t v > 0 then
        ok := false);
  !ok

let equal a b = IntSet.equal a.selected b.selected

let symmetric_difference a b =
  IntSet.elements
    (IntSet.union (IntSet.diff a.selected b.selected) (IntSet.diff b.selected a.selected))

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf eid ->
         let u, v = Graph.edge_endpoints t.graph eid in
         Format.fprintf ppf "%d-%d" u v))
    (edge_ids t)
