(** Byzantine-resilient topology discovery — the future-work direction the
    paper closes with ("techniques used here (e.g. the ⊕ operation) may be
    applicable to that problem").

    Nodes flood their local views exactly like RMT-PKA's type-2 messages;
    an observer collects the reports and reconstructs what it can trust:

    - an edge is {e confirmed} when both endpoints' reports contain it —
      an honest node never confirms a fake incident edge, so a confirmed
      fake edge needs {e both} endpoints corrupted (or fictitious);
    - a node is {e conflicted} when two distinct reports about it arrived —
      impossible without adversarial interference, since honest nodes
      report once and relays may not alter payloads undetected (the trail
      check pins any alteration to a corrupted relay);
    - {e claimed} edges are everything any report asserts — an upper
      envelope, useful to bound what the adversary pretends.

    Guarantees proved by the tests: in any run, (a) every edge between
    honest nodes that are connected to the observer through honest paths
    is confirmed, and (b) every confirmed non-edge of the real graph has
    both endpoints outside the honest node set. *)

open Rmt_base
open Rmt_graph
open Rmt_knowledge
open Rmt_net

type db

val observe :
  ?adversary:Rmt_pka.msg Engine.strategy ->
  Instance.t ->
  observer:int ->
  db
(** Runs the type-2 flood on the instance's graph and collects at the
    observer.  The observer's own view seeds the database.  Attack
    programs compiled against RMT-PKA ([Rmt_attack.Strategy_gen.compile_pka])
    plug in directly — the message type is shared. *)

val confirmed : db -> Graph.t
(** Bilaterally confirmed edges over non-conflicted reporters.  Nodes
    enter only through confirmed incident edges (a lone self-report could
    be a phantom); the observer itself is always present. *)

val claimed : db -> Graph.t
(** Union of every (non-conflicted) claim — the adversary's envelope. *)

val conflicted : db -> Nodeset.t
(** Nodes with contradictory reports: proof of adversarial interference
    concerning them. *)

val reported_nodes : db -> Nodeset.t
(** Every node id about which at least one report arrived (fictitious ids
    included). *)

type accuracy = {
  true_edges : int;  (** edges of the real graph *)
  confirmed_true : int;  (** ... that were confirmed *)
  confirmed_false : int;  (** confirmed edges not in the real graph *)
  phantom_nodes : int;  (** reported ids outside the real graph *)
}

val score : Instance.t -> db -> accuracy
(** Compare a reconstruction against the ground truth (for experiments —
    the observer itself cannot compute this). *)
