(** RMT-PKA — the RMT Partial Knowledge Algorithm (Protocol 1).

    Two message kinds flood through the network, each carrying its
    propagation trail [p]:

    - type 1, [(x, p)] — the dealer's value;
    - type 2, [((u, γ(u), 𝒵_u), p)] — node [u]'s initial topology and
      adversary knowledge.

    Honest relays append themselves to the trail and discard messages
    whose trail already contains them or whose trail's tail is not the
    actual sender (footnote 1: this forces any faulty trail to contain a
    corrupted node).  The receiver assembles {e valid} message sets [M]
    (Definition 4), derives the claimed graph [G_M], and decides [x] when
    it holds a {e full} set (Definition 5: every simple D–R path of [G_M]
    is present as a type-1 message) that admits {e no adversary cover}
    (Definition 6).  Safety (Theorem 4): the decision is never wrong, even
    against adversaries that forge trails, lie about topology and local
    structures, or invent fictitious nodes.  Sufficiency (Theorem 5): when
    the instance has no RMT-cut, the receiver decides on the dealer's
    value within [|V|] rounds.

    The receiver's search is exponential in the worst case — the paper
    leaves efficiency in the partial knowledge model open — so it runs
    under explicit budgets; exhausting a budget can only suppress a
    decision (a liveness loss), never produce a wrong one. *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_net

(** A node's claimed initial information, as carried by type-2 messages.
    The type is private: a report is built only by {!report}, which
    computes [size] from the other fields, so no report — forged ones
    included — can carry a size that disagrees with its contents. *)
type report = private {
  origin : int;
  gamma : Graph.t;
  zeta : Structure.t;
  size : int;
      (** encoding-size estimate of the type-2 payload:
          [1 + |V(γ)| + 2|E(γ)| + Σ_{S ∈ max 𝒵} (1 + |S|)] *)
}

val report : origin:int -> gamma:Graph.t -> zeta:Structure.t -> report
(** The report [(origin, γ, 𝒵)], with its [size] computed once. *)

type payload =
  | Value of int  (** type 1 *)
  | Info of report  (** type 2 *)

val payload_equal : payload -> payload -> bool
(** Equal values, or reports equal in origin, [γ] and [𝒵] (ground set
    and maximal sets); physically equal reports short-cut. *)

type msg = payload Flood.msg
(** Trail-carrying message; see {!Rmt_net.Flood} for the relay rule. *)

val msg_size : msg -> int
(** Size proxy for bit-complexity accounting: trail length plus an
    encoding-size estimate of the payload — [1] for a value, the report's
    precomputed [size] for a report.  Constant-time apart from the trail
    length, since every delivery is charged. *)

type budgets = {
  path_budget : int;  (** DFS extensions per fullness check *)
  subset_budget : int;  (** V_M prune-search nodes per value branch *)
  cover_budget : int;  (** connected subsets per adversary-cover search *)
  conflict_branches : int;  (** distinct conflicting-report resolutions *)
}

val default_budgets : budgets

type state

val automaton :
  ?budgets:budgets -> Instance.t -> x_dealer:int -> (state, msg) Engine.automaton
(** The honest protocol.  Each node reads only its local inputs from the
    instance (its own view [γ(v)] and local structure [𝒵_v], and the
    dealer's label); the receiver additionally knows it is the receiver.
    [x_dealer] is the dealer's input value. *)

val decision : state -> int option

val search_truncated : state -> bool
(** True when some receiver-side budget was exhausted, i.e. a missing
    decision is not a proof of unsolvability. *)

val receiver_trace : state -> string
(** Human-readable summary of the receiver's collected evidence (for the
    CLI and examples).  After a decision it also names the rule that
    fired: the dealer rule, or the full message set behind the value —
    its [V_M] and, per member, the reported view and local structure that
    [M] selected — which is what auditing a decision needs. *)

(** {1 The claimed graph}

    The receiver's two constructions of [G_M], over a selection of one
    report per member; each member must be a node of its own reported
    view, as the receiver's ingestion ensures. *)

val claimed_graph : report list -> Nodeset.t -> Graph.t
(** [claimed_graph reports vset]: the union of the members' views,
    induced on [vset] — [G_M] built from scratch. *)

val claimed_graph_without :
  report list -> parent:Graph.t -> Nodeset.t -> int -> Graph.t
(** [claimed_graph_without reports ~parent vset w], where [parent] is
    [claimed_graph reports vset], is [claimed_graph reports (vset ∖ {w})]
    derived from [parent] as the receiver's search derives it: [w] and
    its edges go, and so does each edge of [w]'s view that no other
    member of [vset] reports. *)

(** {1 Running RMT-PKA on an instance} *)

val run :
  ?budgets:budgets ->
  ?max_messages:int ->
  ?adversary:msg Engine.strategy ->
  Instance.t ->
  x_dealer:int ->
  Engine.result
(** Convenience wrapper: executes the protocol on the instance's graph
    against the given adversary (honest network by default), stopping
    once the receiver decides; bits are {!msg_size}.  [truncated] also
    reports an exhausted receiver search budget. *)
