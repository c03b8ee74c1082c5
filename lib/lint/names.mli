(** Name and type helpers shared by every rmt-lint pass.

    Path rendering in typedtrees is noisy: [Stdlib.] prefixes, dune's
    wrapped-library mangling ([Rmt_base__Nodeset]) and module-alias
    re-exports ([Rmt_base.Nodeset]) all denote the same definition.  The
    helpers here give the passes one canonical spelling to match on. *)

val path_name : Path.t -> string
(** [Path.name] with the [Stdlib.] prefix stripped. *)

val qualified_matches : string list -> string -> bool
(** [qualified_matches ["Hashtbl.fold"] name]: exact match or
    dot-suffix match (so [Rmt_base.Nodeset.of_list] matches
    ["Nodeset.of_list"], but bare [compare] does not match
    ["Nodeset.compare"]). *)

val canonical_ref : string -> string
(** Canonical two-component form of a value reference:
    ["Rmt_base__Nodeset.compare"], ["Rmt_base.Nodeset.compare"] and
    ["Nodeset.compare"] all become ["Nodeset.compare"]; a bare local
    ident stays a single component. *)

val module_of_source : string -> string
(** ["lib/base/nodeset.ml"] ↦ ["Nodeset"] — the call-graph module name
    of a compilation unit. *)

val type_is_base : Types.type_expr -> bool
(** Structurally a base type (int, bool, char, string, float, unit, and
    tuples / lists / options / arrays / refs thereof). *)

val type_is_list : Types.type_expr -> bool

val show_type : Types.type_expr -> string
(** Printed form for messages; never raises. *)

val first_arg_type : Types.type_expr -> Types.type_expr option
(** Domain of an arrow type, if any. *)

val mutable_container : Types.type_expr -> string option
(** [Some kind] when the type's head constructor is a mutable container
    (ref, array, bytes, [Hashtbl.t], [Buffer.t], [Queue.t], [Stack.t],
    [Dynarray.t]). *)

val type_constr_names : Types.type_expr -> string list
(** Every type-constructor name mentioned in the type, canonicalized
    with {!canonical_ref}, sorted and deduplicated. *)
