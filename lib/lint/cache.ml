(* Incremental analysis cache, keyed by cmt content digest.

   Everything the interprocedural passes need from a compilation unit —
   its intraprocedural findings and its Callgraph.unit_summary — is
   plain serializable data, so a warm run can skip reading (and
   re-walking) the typedtree of every unchanged unit entirely: one
   Digest.file per cmt, then the graph is rebuilt from cached summaries
   and R6/R7 re-run from there (they are whole-program and cheap).

   The file format is a Marshal pair written atomically: a version
   string first (checked before anything shape-dependent is read — the
   analyzer version and the compiler version both participate, since
   marshaled typedtree-derived data is not portable across either), then
   the sorted entry list.  Any read failure degrades to an empty cache:
   correctness never depends on this file. *)

type entry =
  | Skipped
      (** the cmt is not an analyzable implementation under the lint
          roots (interface, generated alias module, out-of-tree) *)
  | Analyzed of {
      source : string;
      has_mli : bool;
      intra : Finding.t list;  (** structural findings only, no R5 *)
      summary : Callgraph.unit_summary;
      model : Model.unit_model;  (** protocol-model fragment for R9/R10 *)
    }

(* Bump the leading counter whenever Finding.t, the summary types or the
   rule semantics change — a stale hit would silently resurrect old
   findings.  Both the compiler version and the cmt format magic
   participate: marshaled typedtree-derived data is not portable across
   either, and the magic changes even on patch releases that keep
   [Sys.ocaml_version]-compatible sources. *)
let version =
  "rmt-lint-cache/3:" ^ Sys.ocaml_version ^ ":" ^ Config.cmt_magic_number

type t = {
  entries : (string, string * entry) Hashtbl.t;
  mutable summaries : (string * Summary.effects list) option;
      (** whole-store effect summaries, keyed by the combined digest of
          every cmt that fed the graph *)
}

let empty () = { entries = Hashtbl.create 64; summaries = None }

let load path =
  if not (Sys.file_exists path) then empty ()
  else
    match
      In_channel.with_open_bin path (fun ic ->
          let v : string = Marshal.from_channel ic in
          if not (String.equal v version) then None
          else
            let bindings : (string * (string * entry)) list =
              Marshal.from_channel ic
            in
            let summaries : (string * Summary.effects list) option =
              Marshal.from_channel ic
            in
            Some (bindings, summaries))
    with
    | exception _ -> empty ()
    | None -> empty ()
    | Some (bindings, summaries) ->
      let t = empty () in
      List.iter (fun (k, ve) -> Hashtbl.replace t.entries k ve) bindings;
      t.summaries <- summaries;
      t

let lookup t ~cmt_path ~digest =
  match Hashtbl.find_opt t.entries cmt_path with
  | Some (d, e) when String.equal d digest -> Some e
  | _ -> None

let store t ~cmt_path ~digest entry =
  Hashtbl.replace t.entries cmt_path (digest, entry)

let lookup_summaries t ~key =
  match t.summaries with
  | Some (k, effs) when String.equal k key -> Some effs
  | _ -> None

let store_summaries t ~key effs = t.summaries <- Some (key, effs)

let save path t =
  let bindings =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.entries []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let dir = Filename.dirname path in
  if Sys.file_exists dir then begin
    let tmp = path ^ ".tmp" in
    Out_channel.with_open_bin tmp (fun oc ->
        Marshal.to_channel oc version [];
        Marshal.to_channel oc bindings [];
        Marshal.to_channel oc t.summaries []);
    Sys.rename tmp path
  end
