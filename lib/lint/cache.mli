(** Incremental analysis cache, keyed by cmt content digest.

    Per cmt file the cache stores either {!Skipped} (not an analyzable
    unit) or the unit's intraprocedural findings plus its
    {!Callgraph.unit_summary} — everything a warm run needs without
    re-reading the typedtree.  The whole {!Summary} effect store is
    cached too, keyed by the combined digest of every cmt that fed the
    graph.  Entries are invalidated by content digest; the whole file is
    invalidated by analyzer version, compiler version, or cmt format
    magic (the three things marshaled typedtree-derived data is not
    portable across).  Any load failure degrades to an empty cache, so
    correctness never depends on it ([make lint-clean] merely deletes
    the file). *)

type entry =
  | Skipped
  | Analyzed of {
      source : string;
      has_mli : bool;
      intra : Finding.t list;  (** structural findings only, no R5 *)
      summary : Callgraph.unit_summary;
      model : Model.unit_model;  (** protocol-model fragment for R9/R10 *)
    }

type t

val empty : unit -> t

val load : string -> t
(** Empty on a missing, corrupt, or version-mismatched file. *)

val lookup : t -> cmt_path:string -> digest:string -> entry option
(** A hit requires the stored digest to equal [digest]. *)

val store : t -> cmt_path:string -> digest:string -> entry -> unit

val lookup_summaries : t -> key:string -> Summary.effects list option
(** The cached whole-program effect store, provided the combined cmt
    digest still matches. *)

val store_summaries : t -> key:string -> Summary.effects list -> unit

val save : string -> t -> unit
(** Atomic (write-then-rename), sorted, version-stamped.  A no-op when
    the parent directory does not exist. *)
