(** Bottom-up per-function effect summaries — the interprocedural
    passes' shared substrate.

    {!infer} runs three monotone fixpoints over {!Fixpoint}'s SCC
    condensation of the call graph:

    - {e instantiation sets}: every higher-order argument site
      contributes its resolved references to the callee's [s_inst];
      arguments mentioning a caller parameter additionally forward the
      caller's own set.  This is what makes R7 see through a [~decider]
      parameter.
    - {e effect propagation}: the boolean effects are or-folded over
      resolved callees {e and} instantiation members, callees-first.
    - {e locked-only}: a least fixpoint over open (non-critical-section)
      referrers; a mutable global whose every open reference comes from
      a locked-only function is {!lock_protected} — the analyzed
      replacement for the old hc.ml carve-outs.

    All three are deterministic and independent of input order; the
    property is pinned by test/lint/test_summary_order.ml. *)

type effects = {
  s_fn : string;
  s_file : string;
  s_line : int;
  s_mutates : bool;  (** touches top-level mutable state, transitively *)
  s_nondet : bool;  (** PRNG / wall-clock, transitively *)
  s_source : bool;  (** binds adversary-controlled data (direct) *)
  s_sinks : int;  (** decision-sink sites in the body (direct) *)
  s_cover : bool;  (** reaches a cover/solvability sanitizer *)
  s_conn : bool;  (** reaches a positive-connectivity sanitizer *)
  s_locks : bool;  (** acquires a mutex, transitively *)
  s_heavy : bool;  (** reaches allocation-heavy compute, transitively *)
  s_spawns : bool;  (** fans out to Domains, transitively *)
  s_may_raise : bool;  (** reaches a raise primitive, transitively *)
  s_locked_only : bool;
      (** every reference to this function is under a lock *)
  s_inst : string list;
      (** resolved functions flowing into higher-order parameters *)
}

type store

val infer : Callgraph.t -> store

val graph : store -> Callgraph.t
val find : store -> string -> effects option

val cover_sanitized : store -> string -> bool
val conn_sanitized : store -> string -> bool
(** Family-sanitization membership tests for {!Taint}; [false] for
    functions outside the graph. *)

val lock_protected : store -> string -> bool
(** The named mutable-global binding is referenced at least once and
    every open reference comes from a locked-only function. *)

val lock_wrapper : store -> string -> bool
(** The reference names [Mutex.protect] or resolves to a function that
    directly acquires a mutex; closures passed to it are critical
    sections. *)

val cover_sanitizers : string list
val connectivity_sanitizers : string list
(** The Theorem-4 sanitizer families ({!Taint} owns the rationale). *)

val is_heavy_name : string -> bool
(** Allocation-heavy compute forbidden while the global mutex is held. *)

val is_may_raise_name : string -> bool
val is_raw_lock_name : string -> bool
val is_unlock_name : string -> bool
val is_protect_name : string -> bool
(** Name-class predicates shared with the {!Lock} pass's source-order
    walk. *)

val flags : effects -> string list
(** The set effect bits as short human-readable labels ("mutates",
    "cover-sanitized", ...), for rendering and SARIF thread-flow
    messages. *)

val fingerprint : effects -> string
(** 12-hex digest of the summary's observable content (name, file,
    flags, instantiations). *)

val store_fingerprint : store -> string

val render_text : ?only:string -> store -> string
val render_json : ?only:string -> store -> string
(** [only] restricts to one module (matched against the function-name
    prefix or the source file's module name). *)
