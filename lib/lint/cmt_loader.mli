(** Locating and reading [.cmt] typedtree files out of dune's build tree.

    [dune build \@check] leaves one [.cmt] per implementation under
    [_build/default/**/.<lib>.objs/byte/], mirroring the source tree.
    The loader walks the build-tree mirror of each requested source
    directory, reads every [.cmt] there, and keeps the implementation
    units whose recorded source path falls under one of the requested
    directories — skipping dune-generated module-alias units
    ([*.ml-gen]).  The companion [.cmti] presence is recorded so the R5
    missing-interface check needs no second pass. *)

type unit_info = {
  cmt_path : string;  (** absolute-ish path to the [.cmt] *)
  source : string;  (** source path recorded at compile time *)
  has_mli : bool;  (** a companion [.cmti] sits next to the [.cmt] *)
  structure : Typedtree.structure;
}

val read_cmt : string -> (unit_info option, string) result
(** Read one [.cmt].  [Ok None] for interface / packed / generated units;
    [Error _] when the file cannot be parsed.  A stale-compiler build
    tree is diagnosed by probing the file's format magic, so the error
    names the expected and found magics and says to rerun
    [dune build \@check] instead of surfacing a raw [Cmi_format]
    exception. *)

val scan :
  build_dir:string -> dirs:string list -> (unit_info list, string) result
(** [scan ~build_dir ~dirs] walks [build_dir/d] for each [d] in [dirs]
    and returns every implementation unit whose recorded source path
    lies under one of [dirs] (path-prefix match), sorted by source
    path.  Fails when [build_dir] does not exist — run
    [dune build \@check] first — when a [.cmt] cannot be read, and when
    some [d] yields no unit, so a misspelt directory is an error rather
    than an empty, passing run. *)
