(** Undirected simple graphs.

    A graph is built incrementally through a {!Builder} and then frozen
    into an immutable adjacency structure.  Nodes are the integers
    [0..n-1]; edges carry dense identifiers [0..m-1] so that algorithms
    can attach per-edge data (weights, matching flags) in flat arrays.

    Self-loops are rejected and parallel edges are coalesced: the overlay
    model of the paper (§2) is an undirected simple graph [G(V,E)].

    The builder holds edges in insertion order (edge ids are the order of
    first insertion) in flat int arrays, with an open-addressed set of
    packed keys [u * n + v] for membership, so adding an edge allocates
    nothing beyond amortised growth.  {!Builder.build} freezes this into
    the edge array and per-node [(neighbour, edge id)] arrays sorted by
    neighbour, using counting sorts instead of a comparison sort. *)

type t

module Builder : sig
  type graph := t
  type t

  val create : int -> t
  (** [create n] starts an empty graph on [n] nodes. *)

  val add_edge : t -> int -> int -> bool
  (** [add_edge b u v] inserts the undirected edge {u,v}.  Returns
      [false] (and does nothing) when the edge already exists.
      @raise Invalid_argument on self-loops or out-of-range endpoints. *)

  val mem_edge : t -> int -> int -> bool
  val edge_count : t -> int
  val build : t -> graph
end

val node_count : t -> int
val edge_count : t -> int

val edge_endpoints : t -> int -> int * int
(** Endpoints [(u, v)] with [u < v] of the edge with the given id. *)

val edges : t -> (int * int) array
(** All edges, indexed by edge id. Do not mutate. *)

val degree : t -> int -> int

val neighbors : t -> int -> (int * int) array
(** [neighbors g u] is the array of [(v, edge_id)] pairs, sorted by [v].
    Do not mutate. *)

val neighbor_nodes : t -> int -> int array
(** Just the neighbour ids of [u], sorted. Fresh array. *)

val find_edge : t -> int -> int -> int option
(** Edge id joining two nodes, if present (binary search, O(log deg)). *)

val mem_edge : t -> int -> int -> bool

val other_endpoint : t -> int -> int -> int
(** [other_endpoint g e u] is the endpoint of [e] distinct from [u].
    @raise Invalid_argument if [u] is not an endpoint of [e]. *)

val iter_edges : t -> (int -> int -> int -> unit) -> unit
(** [iter_edges g f] calls [f eid u v] for every edge, [u < v]. *)

val fold_edges : t -> ('a -> int -> int -> int -> 'a) -> 'a -> 'a

val iter_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [iter_neighbors g u f] calls [f v eid] for each neighbour of [u]. *)

val max_degree : t -> int

val of_edge_list : int -> (int * int) list -> t
(** Convenience constructor; duplicates are coalesced. *)

val complement_degree_sum : t -> int
(** Sum over nodes of [n - 1 - degree]; used by density reports. *)

val induced_subgraph : t -> int array -> t * int array
(** [induced_subgraph g nodes] relabels [nodes] to [0..k-1] and keeps the
    edges among them.  Returns the subgraph and the old-id-of-new-id map. *)
