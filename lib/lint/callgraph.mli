(** Cross-module call graph over the repository's compilation units.

    Each unit's typedtree is boiled down once into plain-data
    {!fn_summary} records — one per value binding reachable by a static
    module path — recording every global value reference (canonicalized
    so dune's wrapped-library manglings resolve across units), the
    taint-relevant facts (an Engine [~inbox] parameter, adversary-payload
    types in bound patterns, decision-sink sites) and every Domain
    fan-out call site with its closure's captured mutable variables.

    Summaries are plain data (strings and ints only), so the typedtree
    can be dropped once its unit is summarized.  The interprocedural
    passes {!Race} (R6) and {!Taint} (R7) are pure functions of the
    {!t} built from them. *)

type ref_site = {
  ref_name : string;  (** canonical reference, e.g. ["Nodeset.compare"] *)
  ref_line : int;
}

type fanout = {
  fan_callee : string;  (** e.g. ["Parsweep.map"] *)
  fan_line : int;
  fan_col : int;
  fan_context : string;  (** enclosing binding, for finding contexts *)
  captured : (string * string) list;
      (** mutable values captured from outside the closure: variable
          name, container kind (or mutated field) *)
  closure_refs : ref_site list;
      (** global references made inside the closure *)
  arg_fn : string option;
      (** the function argument when it is a named function rather than
          a literal closure *)
}

type ho_kind =
  | Ho_arrow  (** literal closure / arrow-typed expression *)
  | Ho_alias of string
      (** named type constructor; {!build} keeps the argument only when
          some unit declares that name as an arrow alias *)

type ho_arg = {
  ho_callee : string;
      (** the call-site's callee reference (unit-local names qualified,
          cross-unit names canonicalized) *)
  ho_label : string;  (** argument label, [""] when positional *)
  ho_line : int;
  ho_kind : ho_kind;
  ho_refs : string list;
      (** canonicalized global references inside the argument expression
          — candidate behaviors flowing into the callee *)
  ho_params : string list;
      (** enclosing-binding parameter names the argument mentions as
          free locals: the caller's own instantiations flow through *)
}
(** One higher-order argument at a call site: a closure, (partial)
    application, identifier or packed module passed as an argument.
    {!Summary} resolves these into per-function instantiation sets, so
    a [decide]-style parameter is credited with the guards of whatever
    its callers actually pass. *)

type sink_kind =
  | Decided_assign  (** [_.decided <- ...] *)
  | Verdict_construct of string  (** Campaign verdict constructor *)

type sink_site = {
  sink_kind : sink_kind;
  sink_line : int;
  sink_col : int;
}

type fn_summary = {
  fn_name : string;  (** qualified, e.g. ["Rmt_pka.try_value"] *)
  fn_file : string;
  fn_line : int;
  params : string list;
      (** parameter names of the leading fun chain, labels included *)
  refs : ref_site list;  (** every global value reference, in order *)
  inbox_param : bool;  (** binds an ident named [inbox] *)
  adversary_types : string list;
      (** source type constructors appearing in bound patterns *)
  sinks : sink_site list;
  mutable_global : string option;
      (** [Some kind] when the binding itself is a mutable container or
          a record literal with mutable fields — module-level shared
          state *)
  fanouts : fanout list;
  ho_args : ho_arg list;  (** higher-order argument call sites *)
}

type unit_summary = {
  u_source : string;
  u_module : string;
  u_functions : fn_summary list;
  u_arrow_aliases : string list;
      (** type aliases declared in this unit whose manifest is an arrow
          (e.g. [Zcpa.decider]) — both canonical and short forms *)
}

val sink_describe : sink_kind -> string

val summarize : source:string -> Typedtree.structure -> unit_summary
(** One pass over a typedtree.  Declaration-order independent: locals
    are collected before references are resolved. *)

type t
(** The whole-program graph. *)

val build : unit_summary list -> t
(** Index the summaries.  On duplicate function names the first unit (in
    the given order) wins — callers pass units sorted by source path, so
    the result is deterministic. *)

val functions : t -> fn_summary list
(** All functions, sorted by qualified name. *)

val find : t -> string -> fn_summary option

val resolve : t -> string -> string option
(** Map a reference (as recorded in a summary) to the qualified name of
    a function defined in the analyzed units, if any: exact match first,
    then canonical last-two-components match. *)

val callees : t -> string -> string list
(** Resolved, deduplicated, sorted out-edges; self-loops dropped. *)

val callers : t -> string -> string list

val shortest_path :
  t ->
  admit:(string -> bool) ->
  accept:(string -> bool) ->
  string ->
  string list option
(** Deterministic BFS from a function along call edges through admitted
    nodes to the nearest accepted one; the returned path includes both
    endpoints. *)

val to_dot : t -> string
(** GraphViz rendering of the resolved edges. *)

val stats : t -> int * int
(** (functions, resolved edges). *)
