(** A single static-analysis finding.

    Findings are value types: the rule that fired, where it fired, the
    nearest enclosing top-level binding (the [context], used to keep
    baseline fingerprints stable under line drift), a human-readable
    message, and — for the interprocedural rules R6/R7 — the witnessing
    call {!chain}.  The {!fingerprint} is what baseline files record: it
    hashes the rule, the {e normalized repo-relative} file path, context,
    message and the chain's function names — but {e not} line numbers — so
    unrelated edits above a pinned finding do not invalidate the pin,
    while two findings in different files (or along different call
    chains) can never collide. *)

type hop = {
  hop_fn : string;  (** qualified function name, e.g. ["Rmt_pka.ingest"] *)
  hop_file : string;  (** source path of the defining unit *)
  hop_line : int;  (** line of the definition (or call site) *)
}

type t = {
  rule : string;  (** rule identifier, ["R1"] .. ["R7"] *)
  file : string;  (** source path as recorded in the [.cmt] *)
  line : int;
  col : int;
  context : string;  (** enclosing top-level binding, or ["module"] *)
  message : string;
  chain : hop list;
      (** interprocedural witness path (source first, sink last); empty
          for the intraprocedural rules *)
}

val make :
  rule:string ->
  file:string ->
  ?line:int ->
  ?col:int ->
  ?context:string ->
  ?chain:hop list ->
  string ->
  t

val normalize_path : string -> string
(** Repo-relative normal form: strips leading [./] and
    [_build/default/], collapses duplicate slashes, forces forward
    slashes.  Used by {!fingerprint} and the SARIF emitter. *)

val fingerprint : t -> string
(** 12 hex characters, stable across pure line moves (derived from rule,
    normalized file path, context, message and chain function names —
    never line numbers). *)

val compare : t -> t -> int
(** Order by (file, line, col, rule, message, chain): report order. *)

val chain_to_text : hop list -> string
(** ["A.f (file:12) -> B.g (file:3)"]. *)

val to_text : t -> string
(** [file:line:col: [rule] message  (in context)] — one line, plus an
    indented [call chain:] line when the finding carries one. *)

val json_escape : string -> string
(** The body of a JSON string literal (no surrounding quotes): quote,
    backslash, newline and tab escaped by name, other control
    characters as [\u00XX].  Every lint JSON writer escapes through it. *)

val list_to_json : t list -> string
(** JSON array of self-contained finding objects, one per line. *)
