(** The rmt-lint driver: rules over compilation units, baseline
    filtering, rendering.

    This is the layer both the [rmt_lint] executable and the fixture
    tests call.  One pass, no state between runs: {!Cmt_loader.scan}
    reads the typedtrees, {!scanned_of} walks each once for everything
    the later passes need, {!graph_of} and {!Summary.infer} build the
    effect store over the whole-program {!Callgraph}, {!model_of}
    assembles the protocol model, {!findings_of} combines the per-unit
    intraprocedural findings with the store-client passes ({!Lock}
    R4/R8, {!Race} R6, {!Taint} R7) and the model's R9/R10 findings,
    and {!apply_baseline} splits the result against a suppression
    file. *)

type scanned_unit = {
  su_source : string;
  su_has_mli : bool;
  su_intra : Finding.t list;  (** structural findings only, no R5 *)
  su_summary : Callgraph.unit_summary;
  su_model : Model.unit_model;  (** protocol-model fragment for R9/R10 *)
}

type report = {
  scanned : int;  (** number of compilation units analyzed *)
  findings : Finding.t list;  (** every finding, baselined or not *)
  fresh : Finding.t list;  (** findings not pinned in the baseline *)
  stale : Baseline.entry list;
      (** baseline entries matching no current finding *)
}

val scanned_of : Cmt_loader.unit_info -> scanned_unit
(** The unit's structural findings, call-graph summary and model
    fragment: three walks of its typedtree ({!Rules.check_structure},
    {!Callgraph.summarize}, {!Model.extract}), one each. *)

val graph_of : scanned_unit list -> Callgraph.t

val model_of : scanned_unit list -> Model.t
(** Whole-program protocol model ({!Model.assemble} over the per-unit
    fragments): the [rmt_lint model] payload and the R9/R10
    findings. *)

val findings_of :
  ?require_mli:bool ->
  scanned_unit list ->
  Summary.store ->
  Model.t ->
  Finding.t list
(** All rules: intraprocedural findings, the filesystem half of R5
    (unless [require_mli] is false), the store clients (R4/R8
    {!Lock}, R6 {!Race}, R7 {!Taint}), and the model's R9/R10
    findings. *)

val analyze :
  ?require_mli:bool -> Cmt_loader.unit_info list -> Finding.t list
(** The above composed over loaded units — the fixture-test entry
    point. *)

val apply_baseline : Baseline.entry list -> int -> Finding.t list -> report
(** [apply_baseline entries scanned findings] builds the final report. *)

val render_text : report -> string
(** Human-readable report: fresh findings (with call chains), stale
    entry warnings, and a one-line verdict. *)

val render_json : report -> string
(** Machine-readable report for the CI artifact: scanned count, every
    finding with its fingerprint, the fresh subset, stale entries. *)
