(** LID — Local Information-based Distributed algorithm (paper Alg. 1).

    Every node ranks its incident edges by the symmetric weight of
    eq. 9 (its "weight list") and proposes (PROP) to its top [b_i]
    neighbours.  A mutual proposal locks the connection; a node whose
    proposal is declined (REJ) proposes to its next-ranked neighbour; a
    node with all proposals locked declines everyone left.  The paper
    proves: termination (Lemma 5), equivalence with LIC's edge set
    (Lemmas 3, 4, 6), a ½-approximation of the maximum-weight
    many-to-many matching (Theorem 2 + Lemma 6) and a ¼(1 + 1/b_max)
    approximation of the maximizing-satisfaction b-matching (Theorem 3).

    The protocol is factored into an {e explicit state machine}
    ({!init} / {!deliver}) with two drivers on top: {!run} executes one
    schedule on {!Owp_simnet.Simnet} (delays, message order and faults
    controlled by the caller), while {!model} exposes the very same
    transition code to {!Owp_check.Explore}, which enumerates {e all}
    per-link FIFO schedules on small instances. *)

type message = Prop | Rej

(** {2 The protocol state machine} *)

type state
(** Mutable protocol state of all nodes. *)

type event =
  | Send of int * int * message  (** [Send (src, dst, m)] *)
  | Lock of int * int  (** [Lock (i, v)]: node [i] locked the link to [v] *)

val init :
  ?ranking:(int -> (int * int) array) ->
  Weights.t ->
  capacity:int array ->
  state * event list
(** Fresh protocol state plus the initial events (lines 1–3 of Alg. 1:
    every node proposes to the top [b_i] of its weight list), in the
    order they occur.  [ranking i], when given, overrides node [i]'s
    weight list with an explicit [(neighbour, edge id)] array, best
    first — the {!Stack}'s guard layer uses it to rank by {e perceived} weights
    built from (possibly dishonest) advertised half-weights, and to
    exclude peers quarantined at bootstrap.  The default is the true
    symmetric-weight order, heaviest first.
    @raise Invalid_argument on negative capacities. *)

val deliver : state -> src:int -> dst:int -> message -> event list
(** Process one delivery at [dst] (lines 4–16 of Alg. 1), mutating the
    state; returns the events it caused, in order. *)

val deliver_into : state -> src:int -> dst:int -> message -> (event -> unit) -> unit
(** {!deliver} with the events handed to a sink as they occur instead
    of collected into a list: the same transition, the same events in
    the same order.  A simulator driver passes one sink for the whole
    run ({!run} and {!Stack.run} do), so a delivery allocates no list.
    The sink must not re-enter the state machine. *)

val quiesced : state -> bool
(** Every node reached U_i = ∅ (Lemma 5). *)

val awaiting_reply : state -> node:int -> peer:int -> bool
(** Is [node]'s proposal to [peer] still unanswered (peer in P_i \ K_i)?
    Used by the {!Stack} detector's patience timers to decide whether a
    silent peer still blocks progress. *)

val locks : state -> int -> int list
(** Peers node [i] has locked (its K_i), ascending.  Unlike
    {!locked_edge_ids} this is one-sided: it includes locks whose
    counterpart never reciprocated (possible only when a peer
    misbehaves), which is exactly what the bounded-damage accounting
    in {!Owp_check.Byzantine} needs. *)

val node_finished : state -> int -> bool
(** Has node [i] answered all proposals and emptied U_i? *)

val unterminated_nodes : state -> int list
(** Nodes that have not quiesced, ascending. *)

val quiescence_violations : state -> Owp_check.Violation.t list
(** One structured report per node that failed to quiesce: how many
    proposals are still unanswered and how many candidates remain. *)

val locked_edge_ids : state -> int list
(** Edges locked by {e both} endpoints, ascending — the protocol's
    current matching (symmetric on a clean run, Lemma 4). *)

val freeze : state -> (int * int) list
(** Anytime cutoff: atomically release every tentative (unanswered)
    proposal, empty the candidate sets and mark every node finished, so
    the locked edges become a final served matching.  Both endpoints of
    each pending proposal are released in the same step — the effect of
    a synthetic REJ at each end {e without} re-entering the propose
    transition, so no new pendings or locks can form after the budget
    expired and neither endpoint counts a phantom slot.  Mutual locks
    are untouched; {!locked_edge_ids} is the matching to serve.
    Returns the released [(proposer, peer)] pairs, ascending.
    Idempotent; on a quiesced state it returns [[]]. *)

val copy_state : state -> state
val fingerprint : state -> string
(** Canonical encoding of the protocol state (the scan pointer, a pure
    optimisation, is excluded): equal fingerprints imply identical
    future behaviour.  Used by the interleaving explorer's
    transposition table. *)

val model :
  Weights.t -> capacity:int array -> (state, message) Owp_check.Explore.protocol
(** The protocol, packaged for exhaustive schedule exploration;
    [observe] is {!locked_edge_ids}.  Its [give_up] transition treats a
    dead peer as an implicit decline (a synthetic REJ through the same
    [deliver] code), so the explorer can also model-check convergence
    under adversarial link failures ([max_link_failures > 0]). *)

(** {2 Simulated execution} *)

type cutoff = {
  cut_at : float;  (** the virtual-time budget that expired *)
  released : int;  (** tentative proposals the freeze released *)
  abandoned : int;  (** queued events discarded at the horizon *)
}
(** Accounting of a deadline-bounded run's cutoff ({!freeze}). *)

type report = {
  matching : Owp_matching.Bmatching.t;
  prop_count : int;  (** PROP messages sent *)
  rej_count : int;  (** REJ messages sent *)
  delivered : int;  (** total deliveries processed *)
  dropped : int;  (** messages lost to channel faults (diagnosable loss) *)
  completion_time : float;  (** virtual time of the last event *)
  all_terminated : bool;  (** every node reached U_i = ∅ (Lemma 5) *)
  quiescence : Owp_check.Violation.t list;
      (** empty iff [all_terminated]; otherwise one report per node
          that failed to quiesce (which, and why) *)
  cutoff : cutoff option;
      (** [Some _] iff the run was deadline-bounded and stopped at its
          budget — serving a frozen partial matching is {e not} a
          quiescence failure *)
}

val run :
  ?seed:int ->
  ?delay:Owp_simnet.Simnet.delay_model ->
  ?fifo:bool ->
  ?faults:Owp_simnet.Simnet.faults ->
  ?shards:int ->
  ?unsafe_lookahead:bool ->
  ?deadline:float ->
  ?on_lock:(float -> int -> int -> unit) ->
  ?check:bool ->
  Weights.t ->
  capacity:int array ->
  report
(** Simulate the protocol to quiescence.  Default delay model is
    [Uniform (0.5, 1.5)]; with faults enabled the protocol may fail to
    terminate cleanly, which the report exposes instead of raising.
    [shards] and [unsafe_lookahead] are forwarded to
    {!Owp_simnet.Simnet.create}: the former space-partitions the event
    store (bit-identical for every value), the latter deliberately
    breaks the dispatch order for gate self-tests.
    [deadline] bounds the run at a virtual-time budget: events past the
    horizon are abandoned, the state is {!freeze}-d, and the report
    serves the locked partial matching with [cutoff] filled in —
    delivery order up to the budget is identical to the unbudgeted run
    (same seed, same event prefix), so the served matching grows
    monotonically in the budget.
    [on_lock time i v] is invoked every time node [i] locks the
    connection to [v] (so once per direction per locked edge), at the
    virtual time of the lock — the hook behind the anytime-satisfaction
    experiment (E19).
    [check] (default [false]) runs the {!Owp_check.Checker} structural
    invariants (feasibility, greedy stability, maximality — feasibility
    only at a cutoff, where blocking pairs are the measured
    degradation) on the final matching and raises
    {!Owp_check.Checker.Check_failed} on violation; only meaningful on
    fault-free runs.
    @raise Invalid_argument on negative capacities or a non-positive
    deadline. *)
