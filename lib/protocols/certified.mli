(** Quorum-certified RMT — an echo/vote certification tier over the
    Theorem-4 boundary.

    PR 5 pinned the exact model boundary of Theorem 4: RMT-PKA is safe
    over timely schedules, but one delayed or dropped honest report lets
    the receiver certify a forged trail ([pka_async_delay] /
    [pka_message_loss]).  This layer generalizes signature-free
    Bracha-style echo certification from [f < n/3] thresholds to general
    adversary structures and composes it with an explicit {!Envelope}:

    - {b Redundant flooding}: every protocol message [Load p] floods
      with the usual trail discipline ({!Rmt_net.Flood}), but each hop
      emits [drop_budget + 1] same-round copies per edge — within the
      envelope, a scheduler cannot silence a hop.
    - {b Echo certification}: every node floods [Echo v] once; the
      receiver accepts the run only when the set [E] of echoing nodes
      is a {e quorum}: the complement [V ∖ E] is admissible, i.e. lies
      inside a single adversary set (the general-adversary analogue of
      [2f + 1] echoes — missing voices are explainable by one
      corruption class, so at least the whole honest periphery of some
      admissible corruption has reported in).
    - {b Commit gating}: the receiver holds its decision until
      {!Envelope.commit_round}, by which every honest trail has landed
      under any conforming schedule, then replays the collected
      evidence through the wrapped (synchronous) automaton in one shot.

    Safety inside the envelope therefore reduces to Theorem 4: the
    replayed evidence set is exactly a message set some synchronous
    execution delivers, and the inner protocol never decides wrong on
    such a set.  Liveness on timely schedules is the inner protocol's
    (Theorem 5), delayed to the commit round — for honest runs and for
    corruptions whose silencing still leaves a quorum reachable.  The
    certificate is deliberately conservative beyond that: a corruption
    that {e disconnects} honest echo-holders from the receiver makes
    the missing set span more than one adversary class, and the gate
    aborts (a safe silence the unwrapped protocol would not incur —
    the liveness price of the certificate, reported as [liveness_lost]
    by campaigns, never failed).  Outside the envelope all bets are
    off by design — the boundary lanes in [make sim-smoke] assert
    violations are still findable there, keeping the safety claim
    non-vacuous.

    The echo certificate targets the {e message} adversary (drops and
    delays): corrupted nodes can forge echoes, which weakens the gate
    but never safety — the commit gate alone guarantees the replayed
    set is synchronous-complete within the envelope.  𝒵-CPA is
    deliberately {e not} wrapped: relay flooding launders the
    sender-authenticity its neighborhood oracle depends on. *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_net

type 'p body =
  | Load of 'p  (** a wrapped inner-protocol payload, flooding with trail *)
  | Echo of int  (** [Echo v]: node [v]'s liveness vote, flooding with trail *)
  | Tick  (** receiver keep-alive ping-pong (defeats engine quiescence) *)

type 'p msg = 'p body Flood.msg

type 'p state

val quorum : Structure.t -> Nodeset.t -> bool
(** [quorum z e] — the complement of the echo set [e] (within [z]'s
    ground set) is admissible: some single adversary set explains every
    missing echo. *)

val make :
  graph:Graph.t ->
  receiver:int ->
  structure:Structure.t ->
  envelope:Envelope.t ->
  inject_value:(int -> 'p option) ->
  inject_report:(int -> 'p option) ->
  equal:('p -> 'p -> bool) ->
  inner:('is, 'p Flood.msg) Engine.automaton ->
  inner_truncated:('is -> bool) ->
  ('p state, 'p msg) Engine.automaton
(** The generic certification wrapper.  [inject_value]/[inject_report]
    name the payloads node [v] originates at round 0 (the inner
    protocol's initial sends, reified as data so the wrapper owns every
    send site); [equal] says when two payloads are one fact.  Each node
    deduplicates per trail: it keeps, for every trail, the bodies
    already seen on it, and drops a [Load p] that arrives on a trail
    holding a [Load q] with [p == q || equal p q], or an [Echo] equal to
    one already there.  Relays forward the originator's payload object,
    so most matches are physical.
    [inner] is consulted only inside [decision], replaying the
    receiver's evidence in one shot. *)

val truncated : 'p state -> bool
(** True when the last evidence replay exhausted an inner-protocol
    budget (cf. [Rmt_pka.search_truncated]): a missing decision is a
    liveness loss, not a proof. *)

val echo_set : 'p state -> Nodeset.t
(** The echoing nodes collected so far (receiver-side; for tests and
    traces). *)

val evidence_count : 'p state -> int

(** {1 Certified instantiations} *)

type pka_msg = Rmt_core.Rmt_pka.payload msg

val pka :
  Instance.t ->
  x_dealer:int ->
  (Rmt_core.Rmt_pka.payload state, pka_msg) Engine.automaton
(** Certified RMT-PKA: the partial-knowledge automaton (with
    {!Rmt_core.Rmt_pka.default_budgets}) behind the quorum/commit gate
    of {!Envelope.default}, which contains both pinned Theorem-4
    boundary schedules. *)

val pka_msg_size : pka_msg -> int

type ppa_msg = int msg

val ppa :
  Graph.t ->
  structure:Structure.t ->
  dealer:int ->
  receiver:int ->
  x_dealer:int ->
  (int state, ppa_msg) Engine.automaton
(** Certified PPA: the full-knowledge baseline behind the same
    {!Envelope.default} gate. *)

val ppa_msg_size : ppa_msg -> int
