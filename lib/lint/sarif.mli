(** SARIF 2.1.0 rendering of a lint report, plus the vendored JSON value
    type it is built from (the toolchain ships no JSON library).

    One run, {b rmt-lint} as the driver with the full {!Rules} catalog,
    one result per finding carrying its stable fingerprint (under
    [partialFingerprints.rmtLint/v2]), its location, its
    interprocedural call chain as a [codeFlow], and — when the baseline
    pins it — a [suppressions] entry quoting the justification, so
    uploaded dashboards show pinned findings as suppressed rather than
    open.  When the {!Summary} store is supplied, every thread-flow hop
    is annotated with the hop function's effect summary.  R6/R7/R8
    report at level [error], the intraprocedural rules at [warning]. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val render : t -> string
  (** Deterministic two-space-indented rendering, trailing newline. *)

  val parse : string -> (t, string) result

  val member : string -> t -> t option
  val to_list : t -> t list option
  val to_string : t -> string option
end

val schema_uri : string
val fingerprint_key : string
(** The [partialFingerprints] key, ["rmtLint/v2"]. *)

val render :
  ?store:Summary.store -> entries:Baseline.entry list -> Lint.report -> string
(** The SARIF 2.1.0 document, rendered to text — the payload CI
    uploads. *)
