(** Model envelopes — the (delay-bound, drop-budget) contract a run claims.

    Theorem 4's boundary (PR 5) is a {e model} boundary: RMT-PKA is safe
    over timely schedules, and one delayed or dropped honest report lets
    it certify a forged trail.  An envelope makes the claimed model
    explicit: a schedule {e conforms} to [(d, l)] when every delivered
    message arrives within [d] rounds of its send and at most [l]
    messages are dropped in the whole run.  The certified protocols
    ({!Certified}) are parameterized by an envelope and defend exactly
    against it: every flooded message is emitted in [l + 1] same-round
    copies per edge (so the drop budget cannot silence a hop), and the
    receiver's commit round is late enough that every honest trail —
    at most [n - 1] hops, each at most [d] rounds — has landed.

    Conformance checking against recorded [.sched] schedules lives on
    the simulator side ([Rmt_sim.Envelope_check]); this module stays
    free of simulator dependencies so the protocol layer can use it. *)

type t = private {
  delay_bound : int;  (** delivered messages arrive within this many rounds *)
  drop_budget : int;  (** at most this many messages vanish per run *)
}

val default : t
(** [(3, 2)] — wide enough to contain both pinned Theorem-4 boundary
    fixtures ([pka_async_delay]: delay 3; [pka_message_loss]: 1 drop). *)

val max_drop_budget : int
(** [3].  The drop budget is clamped to this constant so the copy count
    [drop_budget + 1] stays within the pinned multiplier the lint
    model's send-bound extraction uses for {!slots} iteration
    ([Rmt_lint.Model]); see DESIGN §14. *)

val make : delay_bound:int -> drop_budget:int -> t
(** Clamps [delay_bound] to at least 1 and [drop_budget] into
    [0, max_drop_budget]. *)

val slots : t -> unit list
(** [drop_budget + 1] redundancy slots: one copy of every flooded
    message is sent per slot, so a conforming scheduler cannot drop all
    of them.  Exposed as a list so protocol send loops iterate it
    directly (the lint model recognizes the iteration and caps the
    multiplicity at [max_drop_budget + 1]). *)

val commit_round : t -> num_nodes:int -> int
(** [(n - 1) * delay_bound + 2] — by this round every copy of every
    honest trail (at most [n - 1] hops, each hop at most [delay_bound]
    rounds late) has been delivered under any conforming schedule. *)

val to_string : t -> string
(** ["d<delay>l<drops>"], e.g. ["d3l2"]; parsed back by {!of_string}. *)

val of_string : string -> t option
