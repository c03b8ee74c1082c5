type unit_info = {
  cmt_path : string;
  source : string;
  has_mli : bool;
  structure : Typedtree.structure;
}

(* The leading bytes of a cmt are its format magic; probing them turns
   an opaque Cmi_format/Cmt_format exception from a stale-compiler build
   tree into an actionable message naming both magics. *)
let probe_magic path =
  let n = String.length Config.cmt_magic_number in
  match
    In_channel.with_open_bin path (fun ic -> really_input_string ic n)
  with
  | magic -> Some magic
  | exception _ -> None

let read_cmt cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception exn ->
    let expected = Config.cmt_magic_number in
    (match probe_magic cmt_path with
     | Some found when not (String.equal found expected) ->
       Error
         (Printf.sprintf
            "cannot read %s: cmt format magic mismatch (expected %S for \
             OCaml %s, found %S) — the build tree was produced by a \
             different compiler; rerun `dune build @check`"
            cmt_path expected Sys.ocaml_version found)
     | _ ->
       Error
         (Printf.sprintf "cannot read %s: %s" cmt_path
            (Printexc.to_string exn)))
  | infos ->
    (match (infos.Cmt_format.cmt_annots, infos.Cmt_format.cmt_sourcefile) with
     | Cmt_format.Implementation str, Some source
       when Filename.check_suffix source ".ml" ->
       let cmti = Filename.remove_extension cmt_path ^ ".cmti" in
       Ok
         (Some
            {
              cmt_path;
              source;
              has_mli = Sys.file_exists cmti;
              structure = str;
            })
     | _ -> Ok None)

let under_one_of dirs source =
  List.exists
    (fun d ->
      let d =
        if String.length d > 0 && d.[String.length d - 1] = '/' then d
        else d ^ "/"
      in
      String.starts_with ~prefix:d source)
    dirs

(* Every .cmt under [root]; a missing [root] holds none. *)
let cmt_paths root =
  let paths = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
      Array.iter
        (fun entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then walk path
          else if Filename.check_suffix path ".cmt" then
            paths := path :: !paths)
        entries
  in
  walk root;
  !paths

(* Only build_dir/<d> is walked for each requested d: dune mirrors the
   source tree, so the rest of the build tree holds no unit in scope.
   The recorded source path still decides membership. *)
let scan ~build_dir ~dirs =
  if not (Sys.file_exists build_dir && Sys.is_directory build_dir) then
    Error
      (Printf.sprintf
         "build directory %s not found; run `dune build @check` first"
         build_dir)
  else
    let paths =
      List.sort_uniq String.compare
        (List.concat_map
           (fun d -> cmt_paths (Filename.concat build_dir d))
           dirs)
    in
    let rec go acc = function
      | [] -> Ok acc
      | path :: rest -> (
        match read_cmt path with
        | Error e -> Error e
        | Ok (Some u) when under_one_of dirs u.source -> go (u :: acc) rest
        | Ok _ -> go acc rest)
    in
    match go [] paths with
    | Error e -> Error e
    | Ok units -> (
      match
        List.find_opt
          (fun d ->
            not (List.exists (fun u -> under_one_of [ d ] u.source) units))
          dirs
      with
      | Some d ->
        Error
          (Printf.sprintf
             "no analysed unit under %s: no .cmt in %s records a source \
              there; check the directory name or run `dune build @check`"
             d (Filename.concat build_dir d))
      | None ->
        Ok (List.sort (fun a b -> String.compare a.source b.source) units))
