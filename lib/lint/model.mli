(** Protocol-model extraction: abstract round-machine models of every
    [('s, 'm) Transport.automaton] literal in the tree, and the R9/R10
    rule families that consume them.

    Theorem 4's safety argument treats a protocol as a well-behaved
    round machine: the decision is write-once, every honest-reachable
    message shape is handled, and per-round fan-out is bounded by the
    topology.  This pass makes those obligations checkable.  The
    extraction half ({!extract}) walks a unit's typedtree once and
    records, per function, serializable {e facts}: send-record
    constructions classified by their iteration context, calls with
    their context and whether the caller's inbox is passed along,
    constructor uses and matches, reads/writes of mutable state fields,
    and head-only inbox consumption.  An automaton is any record literal
    with exactly the fields [{init; step; decision}]; its three
    components are resolved against the constructor's local [let]s, the
    unit's module-level bindings, and (at assembly time) the whole
    program.

    The assembly half ({!assemble}) is pure data over the per-unit
    fragments and produces one {!protocol} per automaton literal plus
    one {!helper} entry per send-producing function (so [Flood.relay]'s
    [|inbox|·deg(v)] classification is visible even though flood.ml
    defines no automaton itself), together with the R9/R10 findings.

    {2 The symbolic send bound}

    A per-activation bound is a vector of coefficients over
    [{1, deg(v), n, |inbox|, |inbox|·deg(v)}].  Classification is by
    iteration context: a send record built outside any iteration counts
    as a constant; inside a fold over [Graph.neighbors] as
    out-degree-linear; inside an iterator over the step's [inbox] as
    inbox-linear; over a topology-derived local list (Dolev's
    node-disjoint routes) as [n]-linear — a deliberate coarse cap,
    sound for lists of disjoint node sets; and inside a loop, recursion,
    or an unclassifiable iterator as unbounded.  Calls compose by
    context multiplication ([broadcast] under an inbox iterator is
    [|inbox|·deg(v)]), and a callee's inbox coefficients survive only
    when the caller passes its own inbox through.  {!concretize} turns
    the vector into a per-round message count for a concrete instance;
    [test/net/test_cost_bound.ml] replays every protocol and checks
    [Transport.stats] against it round by round.

    {2 Rules}

    - {b R9 automaton discipline}: a step-reachable function that
      assigns a decision field the [decision] function reads without
      guarding on a read of that field (write-once violation), or
      assigns it a literal [None] (decision reset); a [step] that
      consumes only the head of its inbox ([Naive.first_delivery], the
      pinned strawman); a constructor sent by an honest node but never
      matched by any step-reachable case (handler totality).  Replay
      sensitivity is not a finding: whether [step] reads [~round] and
      whether ingestion is dedup-guarded are surfaced as model fields
      for audit instead.
    - {b R10 communication budget}: an automaton whose init or step
      bound is unbounded.  Bounded protocols are not findings — their
      vectors are emitted in [lint-model.json] and enforced dynamically
      by the cost-bound test. *)

(** Iteration context a send construction or call occurs under. *)
type ctx =
  | Top  (** straight-line code: evaluated at most once per activation *)
  | Inbox  (** inside an iterator over the step's [inbox] *)
  | Deg  (** inside a fold over [Graph.neighbors] *)
  | Inbox_deg  (** inbox iterator and neighbor fold nested *)
  | Nodes  (** iterator over a topology-derived local list or node set *)
  | Unknown  (** loop, recursion, or unclassifiable iterator *)

type call_site = {
  cs_ctx : ctx;
  cs_callee : string;  (** bare local name or canonical [Module.fn] *)
  cs_passes_inbox : bool;
      (** the caller's own [inbox] is an argument of the call *)
  cs_returns_sends : bool;
      (** the application's result type mentions [Transport.send] —
          an unresolvable such call makes the bound unbounded *)
  cs_via : string option;
      (** for a call of a closure argument: the callee it is handed to.
          The closure counts only if that callee resolves to a function
          that uses its parameters (or does not resolve at all). *)
  cs_pos : int;
      (** file offset of the call: a local name resolves to the last
          local binding of it visible there *)
}

(** Per-function facts, one record per binding or closure argument. *)
type fn_facts = {
  f_name : string;  (** qualified, e.g. ["Naive.broadcast"] *)
  f_file : string;
  f_line : int;
  f_uses_params : bool;
      (** refers to one of its parameters, itself or from a function
          nested in it — outside the closures it stores *)
  f_sends : (ctx * int) list;  (** send-record constructions by context *)
  f_calls : call_site list;
  f_constructs : (string * string) list;
      (** (result-type head, constructor) for non-stdlib constructors *)
  f_matches : (string * string) list;  (** same, for pattern matches *)
  f_writes : (string * bool) list;
      (** (mutable field, rhs is a literal [None]) per [<-] assignment *)
  f_reads : string list;  (** mutable fields read *)
  f_inbox_head_only : bool;
      (** every use of [inbox] is a head-only cons match *)
  f_uses_round : bool;
  f_dedup_guard : bool;  (** ingestion guarded by [Hashtbl.mem]/[List.mem] *)
  f_scope : (string * int * fn_facts) list;
      (** nested function [let]s, inline automaton components and
          closure arguments ([<fun:line:col>]), in definition order:
          bare name, the file offset from which references see it (a
          plain [let]'s body, a [let rec] itself too), facts (top-level
          bindings only) *)
  f_item : int;
      (** ordinal of the top-level [let] that binds it within its unit
          (0 for nested functions); a reference from the unit resolves
          to the last binding of the name visible at the referrer's
          [let] *)
  f_rec : bool;
      (** that [let] is [let rec], so its bindings see themselves and
          each other *)
}

(** One [{init; step; decision}] literal as recorded at extraction. *)
type automaton_src = {
  a_owner : string;  (** enclosing top-level binding, e.g. ["Naive.make"] *)
  a_file : string;
  a_line : int;
  a_pos : int;  (** file offset of the literal's end *)
  a_msg_type : string;  (** printed ['m] of the literal's type *)
  a_init : string;
  a_step : string;
  a_decision : string;
      (** component names as written (or synthesized for inline [fun]s),
          resolved at assembly through owner scope, unit, program *)
}

type unit_model = {
  um_source : string;
  um_module : string;
  um_fns : fn_facts list;  (** module-level bindings, qualified names *)
  um_automata : automaton_src list;
}

val extract : source:string -> Typedtree.structure -> unit_model
(** One typedtree walk; everything returned is plain data. *)

(** Symbolic per-activation send bound:
    [const + deg·deg(v) + nodes·n + inbox·|inbox| + inbox_deg·|inbox|·deg(v)],
    or unbounded. *)
type bound = {
  b_const : int;
  b_deg : int;
  b_nodes : int;
  b_inbox : int;
  b_inbox_deg : int;
  b_unbounded : bool;
}

val bound_to_string : bound -> string
(** ["2·deg(v) + |inbox|"], ["0"], ["unbounded"]. *)

val concretize :
  bound -> num_nodes:int -> sum_deg:int -> max_deg:int -> prev:int -> int
(** Network-wide per-round concretization: summing the per-node bound
    over all [n] nodes gives
    [n·const + const·sum_deg(=2|E|) + nodes·n² + inbox·prev +
    inbox_deg·prev·max_deg], where [prev] is the number of messages
    delivered the previous round (every node's inbox sizes sum to it).
    Saturating; [max_int] when unbounded. *)

type protocol = {
  p_name : string;  (** the constructor binding, e.g. ["Rmt_pka.automaton"] *)
  p_file : string;
  p_line : int;
  p_msg_type : string;
  p_alphabet : string list;
      (** message constructors an honest init/step can send *)
  p_handled : string list;  (** constructors matched by step-reachable code *)
  p_decision_reads : string list;
      (** mutable state fields the [decision] component reads *)
  p_round_sensitive : bool;  (** [step] actually reads [~round] *)
  p_dedup_guarded : bool;
      (** step-reachable ingestion carries a seen-before guard *)
  p_init : bound;
  p_step : bound;
}

type helper = {
  h_name : string;
  h_file : string;
  h_line : int;
  h_bound : bound;  (** per-call send production *)
}

type t = {
  protocols : protocol list;  (** sorted by name *)
  helpers : helper list;  (** send producers only, sorted by name *)
  findings : Finding.t list;  (** R9/R10, sorted *)
}

val assemble : unit_model list -> t
(** Whole-program assembly: resolve helpers through constructor scope →
    unit → program, compute each function's bound once, callees first
    over the call graph's strongly connected components (a cycle that
    sends anything is unbounded, a send-free one zero), run the R9/R10
    checks.  Input order does not matter; the
    result (and {!fingerprint}) is identical under any permutation. *)

val find : t -> string -> protocol option
(** By exact name, bare suffix, or module prefix (case-insensitive). *)

val render_text : ?only:string -> t -> string

val render_json : ?only:string -> t -> string
(** The [lint-model.json] payload: schema line, one object per protocol
    with symbolic and coefficient forms of both bounds, and the helper
    table. *)

val fingerprint : t -> string
(** Digest of the canonical JSON rendering. *)
