type t = {
  n : int;
  edges : (int * int) array; (* edge id -> (u, v), u < v *)
  adj : (int * int) array array; (* node -> sorted array of (neighbor, edge id) *)
}

module Builder = struct
  (* Edges live in insertion order in two growable int arrays (edge id
     -> lower / upper endpoint); membership is an open-addressed set of
     packed keys [u * n + v] (u < v), -1 marking an empty slot, the same
     scheme as Simnet's link-clock table.  Nothing is allocated per
     edge beyond amortised array growth. *)
  type t = {
    bn : int;
    mutable keys : int array; (* capacity a power of two, at most half full *)
    mutable shift : int; (* 63 - log2 (capacity): the hash keeps the top bits *)
    mutable lo : int array; (* edge id -> lower endpoint *)
    mutable hi : int array; (* edge id -> upper endpoint *)
    mutable count : int;
  }

  let create n =
    if n < 0 then invalid_arg "Graph.Builder.create: negative node count";
    { bn = n; keys = Array.make 64 (-1); shift = 63 - 6; lo = [||]; hi = [||]; count = 0 }

  (* packed key of the normalised pair *)
  let key b u v =
    if u = v then invalid_arg "Graph.Builder: self-loop";
    if u < 0 || v < 0 || u >= b.bn || v >= b.bn then
      invalid_arg "Graph.Builder: endpoint out of range";
    if u < v then (u * b.bn) + v else (v * b.bn) + u

  (* slot where [k] lives or would be inserted (linear probing from a
     multiplicative hash) *)
  let probe keys shift k =
    let mask = Array.length keys - 1 in
    let i = ref ((k * 0x2545F4914F6CDD1D) lsr shift) in
    while
      let x = Array.unsafe_get keys !i in
      x >= 0 && x <> k
    do
      i := (!i + 1) land mask
    done;
    !i

  let grow_keys b =
    let keys = Array.make (2 * Array.length b.keys) (-1) and shift = b.shift - 1 in
    Array.iter (fun k -> if k >= 0 then keys.(probe keys shift k) <- k) b.keys;
    b.keys <- keys;
    b.shift <- shift

  let grow_edges b =
    let cap = max 16 (2 * b.count) in
    let lo = Array.make cap 0 and hi = Array.make cap 0 in
    Array.blit b.lo 0 lo 0 b.count;
    Array.blit b.hi 0 hi 0 b.count;
    b.lo <- lo;
    b.hi <- hi

  let mem_edge b u v = b.keys.(probe b.keys b.shift (key b u v)) >= 0

  let add_edge b u v =
    let k = key b u v in
    let slot = probe b.keys b.shift k in
    if b.keys.(slot) >= 0 then false
    else begin
      b.keys.(slot) <- k;
      let e = b.count in
      if e = Array.length b.lo then grow_edges b;
      if u < v then begin
        b.lo.(e) <- u;
        b.hi.(e) <- v
      end
      else begin
        b.lo.(e) <- v;
        b.hi.(e) <- u
      end;
      b.count <- e + 1;
      if 2 * b.count > Array.length b.keys then grow_keys b;
      true
    end

  let edge_count b = b.count

  (* Adjacency without a comparison sort.  Node x's sorted adjacency is
     its lower neighbours (edges (w, x), w < x) in ascending w, then its
     upper neighbours (edges (x, w), w > x) in ascending w.  Two stable
     counting sorts (least significant key first) order the edge ids by
     (upper, lower) endpoint, so bucket x of that order lists x's lower
     neighbours ascending; two more order them by (lower, upper), whose
     bucket x lists x's upper neighbours ascending.  Neighbours of a node
     are distinct, so this is the one ascending order.  Each node's array
     is then built in one go, together with its tuples: storing young
     tuples into an already promoted array would cost a write barrier
     per entry and about half the build's time in minor collections. *)
  let build b =
    let n = b.bn and m = b.count and lo = b.lo and hi = b.hi in
    let edges = Array.init m (fun e -> (lo.(e), hi.(e))) in
    let nlow = Array.make n 0 and nup = Array.make n 0 in
    for e = 0 to m - 1 do
      nlow.(hi.(e)) <- nlow.(hi.(e)) + 1;
      nup.(lo.(e)) <- nup.(lo.(e)) + 1
    done;
    (* [dst] := the ids [src k], k = 0 .. m-1, stably bucketed by
       [endpoint], whose bucket sizes are [count] *)
    let cursor = Array.make n 0 in
    let bucket endpoint count src dst =
      let acc = ref 0 in
      for x = 0 to n - 1 do
        cursor.(x) <- !acc;
        acc := !acc + count.(x)
      done;
      for k = 0 to m - 1 do
        let e = src k in
        let x = endpoint.(e) in
        dst.(cursor.(x)) <- e;
        cursor.(x) <- cursor.(x) + 1
      done
    in
    let tmp = Array.make m 0 and by_hi_lo = Array.make m 0 and by_lo_hi = Array.make m 0 in
    bucket lo nup Fun.id tmp;
    bucket hi nlow (Array.get tmp) by_hi_lo;
    bucket hi nlow Fun.id tmp;
    bucket lo nup (Array.get tmp) by_lo_hi;
    (* [Array.init] visits the nodes in ascending order, so the bucket
       starts are running sums *)
    let low_at = ref 0 and up_at = ref 0 in
    let adj =
      Array.init n (fun x ->
          let nl = nlow.(x) and l0 = !low_at and u0 = !up_at in
          low_at := l0 + nl;
          up_at := u0 + nup.(x);
          Array.init (nl + nup.(x)) (fun k ->
              if k < nl then
                let e = by_hi_lo.(l0 + k) in
                (lo.(e), e)
              else
                let e = by_lo_hi.(u0 + k - nl) in
                (hi.(e), e)))
    in
    { n; edges; adj }
end

let node_count g = g.n
let edge_count g = Array.length g.edges
let edge_endpoints g e = g.edges.(e)
let edges g = g.edges
let degree g u = Array.length g.adj.(u)
let neighbors g u = g.adj.(u)
let neighbor_nodes g u = Array.map fst g.adj.(u)

let find_edge g u v =
  let a = g.adj.(u) in
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  let found = ref None in
  while !found = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w, eid = a.(mid) in
    if w = v then found := Some eid else if w < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

let mem_edge g u v = find_edge g u v <> None

let other_endpoint g e u =
  let a, b = g.edges.(e) in
  if a = u then b
  else if b = u then a
  else invalid_arg "Graph.other_endpoint: node is not an endpoint"

let iter_edges g f = Array.iteri (fun eid (u, v) -> f eid u v) g.edges

let fold_edges g f init =
  let acc = ref init in
  iter_edges g (fun eid u v -> acc := f !acc eid u v);
  !acc

let iter_neighbors g u f = Array.iter (fun (v, eid) -> f v eid) g.adj.(u)

let max_degree g =
  let d = ref 0 in
  for i = 0 to g.n - 1 do
    d := max !d (degree g i)
  done;
  !d

let of_edge_list n pairs =
  let b = Builder.create n in
  List.iter (fun (u, v) -> ignore (Builder.add_edge b u v)) pairs;
  Builder.build b

let complement_degree_sum g =
  let acc = ref 0 in
  for i = 0 to g.n - 1 do
    acc := !acc + (g.n - 1 - degree g i)
  done;
  !acc

let induced_subgraph g nodes =
  let k = Array.length nodes in
  let new_of_old = Hashtbl.create k in
  Array.iteri (fun ni oi -> Hashtbl.replace new_of_old oi ni) nodes;
  let b = Builder.create k in
  Array.iteri
    (fun ni oi ->
      iter_neighbors g oi (fun v _ ->
          match Hashtbl.find_opt new_of_old v with
          | Some nv when nv > ni -> ignore (Builder.add_edge b ni nv)
          | _ -> ()))
    nodes;
  (Builder.build b, Array.copy nodes)
