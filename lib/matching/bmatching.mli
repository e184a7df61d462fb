(** Many-to-many matchings (b-matchings).

    A b-matching on a graph with per-node capacities [b_i] is a subset of
    edges such that every node [i] is covered at most [b_i] times (§2 of
    the paper: connection quotas).  Values of this type are validated at
    construction: capacities hold by invariant. *)

type t

val of_edge_ids : Graph.t -> capacity:int array -> int list -> t
(** @raise Invalid_argument if an edge id is out of range, duplicated,
    or a capacity is exceeded. *)

val empty : Graph.t -> capacity:int array -> t

val graph : t -> Graph.t
val capacity : t -> int -> int
val size : t -> int
(** Number of selected edges. *)

val mem : t -> int -> bool
(** Is the edge id selected? *)

val edge_ids : t -> int list
(** Selected edge ids, ascending. *)

val degree : t -> int -> int
(** Number of selected edges covering a node. *)

val residual : t -> int -> int
(** Remaining capacity of a node. *)

val saturated : t -> int -> bool

val connections : t -> int -> int list
(** Matched partner nodes of a node (with multiplicity 1 each: simple
    graph), ascending. *)

val connection_lists : t -> int list array
(** Per-node partner lists, as consumed by satisfaction accounting:
    element [i] equals [connections t i].  One linear pass over the
    graph. *)

val weight : t -> Weights.t -> float
(** Total weight under the given weights (must share the graph). *)

val is_maximal : t -> bool
(** No unselected edge has residual capacity at both endpoints. *)

val equal : t -> t -> bool
(** Same selected edge set (graphs assumed identical). *)

val symmetric_difference : t -> t -> int list

val add : t -> int -> t
(** Functional insert. @raise Invalid_argument if infeasible or present. *)

val remove : t -> int -> t
(** @raise Invalid_argument if the edge is not selected. *)

val pp : Format.formatter -> t -> unit
