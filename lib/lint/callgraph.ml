open Typedtree

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)
(* ------------------------------------------------------------------ *)

type ref_site = {
  ref_name : string;
  ref_line : int;
}

type fanout = {
  fan_callee : string;
  fan_line : int;
  fan_col : int;
  fan_context : string;
  captured : (string * string) list;
  closure_refs : ref_site list;
  arg_fn : string option;
}

(* How a call-site argument was classified as function-valued.  A
   [Ho_alias] carries the canonicalized type-constructor name; whether
   that name is an arrow alias (type decider = ... -> ...) is only known
   once every unit's declarations are on the table, so the decision is
   deferred to {!build} — keeping per-unit summaries independent of
   the other units. *)
type ho_kind =
  | Ho_arrow
  | Ho_alias of string

type ho_arg = {
  ho_callee : string;
  ho_label : string;
  ho_line : int;
  ho_kind : ho_kind;
  ho_refs : string list;
  ho_params : string list;
}

type sink_kind =
  | Decided_assign
  | Verdict_construct of string

type sink_site = {
  sink_kind : sink_kind;
  sink_line : int;
  sink_col : int;
}

type fn_summary = {
  fn_name : string;
  fn_file : string;
  fn_line : int;
  params : string list;
  refs : ref_site list;
  inbox_param : bool;
  adversary_types : string list;
  sinks : sink_site list;
  mutable_global : string option;
  fanouts : fanout list;
  ho_args : ho_arg list;
}

type unit_summary = {
  u_source : string;
  u_module : string;
  u_functions : fn_summary list;
  u_arrow_aliases : string list;
      (* type aliases this unit declares whose manifest is an arrow *)
}

let sink_describe = function
  | Decided_assign -> "assignment to mutable field `decided'"
  | Verdict_construct c -> Printf.sprintf "verdict constructor `%s'" c

(* The adversary-payload type constructors whose appearance in a bound
   pattern marks the enclosing function as a taint source (R7), plus the
   one parameter name every Engine automaton receives deliveries
   through.  Kept here, next to the extraction, so the summaries and
   the passes can never disagree. *)
let source_type_names =
  [ "Flood.msg"; "Program.t"; "Program.inject"; "Engine.strategy" ]

let inbox_param_name = "inbox"

(* Fan-out entry points whose function argument crosses Domains (R6). *)
let fanout_names =
  [ "Parsweep.map"; "Parsweep.map_list"; "Timing.time_with_domains";
    "Domain.spawn" ]

let verdict_constructors = [ "Delivered"; "Silenced"; "Violated" ]

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let col_of (loc : Location.t) =
  loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol

(* Collect every ident bound by any pattern inside [e] — closure
   parameters and internal lets alike — so free-variable analysis can
   tell captured state from domain-local allocations. *)
let bound_idents_of_expr e =
  let acc = ref [] in
  let default = Tast_iterator.default_iterator in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun sub p ->
    acc := pat_bound_idents p @ !acc;
    default.pat sub p
  in
  let iter = { default with pat } in
  iter.expr iter e;
  !acc

(* All global value references inside [e] (canonicalized), in source
   order. [locals] maps a unit-local top-level binding name to its
   qualified form. *)
let refs_of_expr ~locals e =
  let acc = ref [] in
  let default = Tast_iterator.default_iterator in
  let expr sub e =
    (match e.exp_desc with
     | Texp_ident (p, _, _) ->
       let name = Names.path_name p in
       let canonical =
         match p with
         | Path.Pident _ ->
           (match Hashtbl.find_opt locals name with
            | Some qualified -> qualified
            | None -> name)
         | _ -> Names.canonical_ref name
       in
       acc := { ref_name = canonical; ref_line = line_of e.exp_loc } :: !acc
     | _ -> ());
    default.expr sub e
  in
  let iter = { default with expr } in
  iter.expr iter e;
  List.rev !acc

let analyze_closure ~locals ~unit_locals (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) ->
    let name = Names.path_name p in
    let canonical =
      match p with
      | Path.Pident _ ->
        (match Hashtbl.find_opt locals name with
         | Some qualified -> qualified
         | None -> name)
      | _ -> Names.canonical_ref name
    in
    ([], [], Some canonical)
  | _ ->
    let bound = bound_idents_of_expr e in
    let is_bound id = List.exists (fun b -> Ident.same b id) bound in
    let captured = ref [] in
    let add_captured name what =
      if not (List.mem_assoc name !captured) then
        captured := (name, what) :: !captured
    in
    let default = Tast_iterator.default_iterator in
    let expr sub e =
      (match e.exp_desc with
       | Texp_ident (Path.Pident id, _, _)
         when (not (is_bound id))
              && not (Hashtbl.mem unit_locals (Ident.name id)) ->
         (match Names.mutable_container e.exp_type with
          | Some kind -> add_captured (Ident.name id) kind
          | None -> ())
       | Texp_setfield (r, _, ld, _) ->
         (match r.exp_desc with
          | Texp_ident (Path.Pident id, _, _) when not (is_bound id) ->
            add_captured (Ident.name id)
              (Printf.sprintf "mutable field `%s'" ld.Types.lbl_name)
          | _ -> ())
       | _ -> ());
      default.expr sub e
    in
    let iter = { default with expr } in
    iter.expr iter e;
    (List.rev !captured, refs_of_expr ~locals e, None)

(* Parameter names of a binding, walking the leading fun chain.  An
   optional parameter's real name lives in its label (the pattern binds
   the compiler's [*opt*] cell); default-value lets between parameters
   are stepped over so [?(a = e) b] yields both names. *)
let params_of_binding e =
  let acc = ref [] in
  let add n =
    if (not (String.contains n '*')) && not (List.mem n !acc) then
      acc := n :: !acc
  in
  let add_pat p = List.iter (fun id -> add (Ident.name id)) (pat_bound_idents p) in
  let rec go e =
    match e.exp_desc with
    | Texp_function { arg_label; cases; _ } ->
      (match arg_label with
       | Asttypes.Labelled n | Asttypes.Optional n -> add n
       | Asttypes.Nolabel -> ());
      (match cases with
       | [ c ] ->
         add_pat c.c_lhs;
         go c.c_rhs
       | cs -> List.iter (fun c -> add_pat c.c_lhs) cs)
    | Texp_let (_, _, body) -> go body
    | _ -> ()
  in
  go e;
  List.rev !acc

(* Strip the [Some _] wrapper the typechecker inserts when a value is
   passed directly to an optional parameter. *)
let peel_optional e =
  match e.exp_desc with
  | Texp_construct (_, cd, [ inner ])
    when String.equal cd.Types.cstr_name "Some" ->
    inner
  | _ -> e

(* A call-site argument participates in higher-order resolution when it
   can carry behavior into the callee: a literal closure or packed
   module always does; an identifier or (partial) application only when
   its type is an arrow — or a named alias ([Ho_alias]) that {!build}
   may later recognize as one.  Data-typed arguments must be skipped or
   every [Nodeset.equal (f x) y] call would pollute the instantiation
   sets with [f]. *)
let rec arrow_kind ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> Some Ho_arrow
  | Types.Tpoly (t, _) -> arrow_kind t
  | Types.Tconstr (p, _, _) ->
    Some (Ho_alias (Names.canonical_ref (Names.path_name p)))
  | _ -> None

let functionish e =
  match e.exp_desc with
  | Texp_function _ | Texp_pack _ -> Some Ho_arrow
  | Texp_apply _ | Texp_ident _ -> arrow_kind e.exp_type
  | _ -> None

(* Names of the enclosing binding's parameters that [e] mentions as free
   local identifiers — the hook for parameter-flow propagation
   (instantiations of the caller flow into the callee). *)
let param_mentions ~locals ~params e =
  if params = [] then []
  else begin
    let bound = bound_idents_of_expr e in
    let is_bound id = List.exists (fun b -> Ident.same b id) bound in
    let acc = ref [] in
    let default = Tast_iterator.default_iterator in
    let expr sub e =
      (match e.exp_desc with
       | Texp_ident (Path.Pident id, _, _)
         when (not (is_bound id))
              && (not (Hashtbl.mem locals (Ident.name id)))
              && List.mem (Ident.name id) params
              && not (List.mem (Ident.name id) !acc) ->
         acc := Ident.name id :: !acc
       | _ -> ());
      default.expr sub e
    in
    let iter = { default with expr } in
    iter.expr iter e;
    List.sort String.compare !acc
  end

let record_with_mutable_field e =
  match e.exp_desc with
  | Texp_record { fields; _ } ->
    Array.exists
      (fun (ld, _) ->
        match ld.Types.lbl_mut with
        | Asttypes.Mutable -> true
        | Asttypes.Immutable -> false)
      fields
  | _ -> false

let rec module_structure me =
  match me.mod_desc with
  | Tmod_structure inner -> Some inner
  | Tmod_constraint (inner, _, _, _) -> module_structure inner
  | _ -> None

(* First pass: the names of every value binding reachable by a static
   module path in this unit, mapped to their qualified form.  Doing this
   before the main pass makes the analysis independent of declaration
   order (the qcheck shuffle test pins this). *)
let collect_locals ~module_name str =
  let locals = Hashtbl.create 64 in
  let rec go prefix str =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              List.iter
                (fun id ->
                  let name = Ident.name id in
                  if not (Hashtbl.mem locals name) then
                    Hashtbl.replace locals name (prefix ^ "." ^ name))
                (pat_bound_idents vb.vb_pat))
            vbs
        | Tstr_module mb ->
          (match (mb.mb_id, module_structure mb.mb_expr) with
           | Some id, Some inner ->
             go (prefix ^ "." ^ Ident.name id) inner
           | _ -> ())
        | _ -> ())
      str.str_items
  in
  go module_name str;
  locals

let summarize ~source str =
  let module_name = Names.module_of_source source in
  let locals = collect_locals ~module_name str in
  (* names only, for captured-variable analysis *)
  let unit_locals = Hashtbl.create 64 in
  Hashtbl.iter
    (fun name _ -> Hashtbl.replace unit_locals name ())
    locals;
  let functions = ref [] in
  let summarize_binding ~prefix vb =
    let fn_name =
      match pat_bound_idents vb.vb_pat with
      | id :: _ -> prefix ^ "." ^ Ident.name id
      | [] -> prefix ^ ".(pattern)"
    in
    let fn_line = line_of vb.vb_loc in
    let params = params_of_binding vb.vb_expr in
    let refs = ref [] in
    let inbox = ref false in
    let adv_types = ref [] in
    let sinks = ref [] in
    let fanouts = ref [] in
    let ho_args = ref [] in
    let default = Tast_iterator.default_iterator in
    let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
     fun sub p ->
      List.iter
        (fun id ->
          if String.equal (Ident.name id) inbox_param_name then inbox := true)
        (pat_bound_idents p);
      List.iter
        (fun tname ->
          if
            Names.qualified_matches source_type_names tname
            && not (List.mem tname !adv_types)
          then adv_types := tname :: !adv_types)
        (Names.type_constr_names p.pat_type);
      default.pat sub p
    in
    let record_ref p loc =
      let name = Names.path_name p in
      let canonical =
        match p with
        | Path.Pident _ ->
          (match Hashtbl.find_opt locals name with
           | Some qualified -> qualified
           | None -> name)
        | _ -> Names.canonical_ref name
      in
      refs := { ref_name = canonical; ref_line = line_of loc } :: !refs;
      canonical
    in
    let expr sub e =
      (match e.exp_desc with
       | Texp_ident (p, _, _) -> ignore (record_ref p e.exp_loc)
       | Texp_setfield (_, _, ld, _) ->
         if String.equal ld.Types.lbl_name "decided" then
           sinks :=
             {
               sink_kind = Decided_assign;
               sink_line = line_of e.exp_loc;
               sink_col = col_of e.exp_loc;
             }
             :: !sinks
       | Texp_construct (_, cd, _)
         when List.mem cd.Types.cstr_name verdict_constructors ->
         sinks :=
           {
             sink_kind = Verdict_construct cd.Types.cstr_name;
             sink_line = line_of e.exp_loc;
             sink_col = col_of e.exp_loc;
           }
           :: !sinks
       | Texp_apply (fn, args) ->
         (match fn.exp_desc with
          | Texp_ident (p, _, _) ->
            let canonical = Names.canonical_ref (Names.path_name p) in
            (* higher-order argument sites: what behavior flows into the
               callee, and through which of our own parameters *)
            let callee =
              match p with
              | Path.Pident _ ->
                (match Hashtbl.find_opt locals (Names.path_name p) with
                 | Some qualified -> qualified
                 | None -> Names.path_name p)
              | _ -> canonical
            in
            List.iter
              (fun (label, a) ->
                match a with
                | None -> ()
                | Some a ->
                  let a = peel_optional a in
                  (match functionish a with
                   | None -> ()
                   | Some ho_kind ->
                     let ho_refs =
                       refs_of_expr ~locals a
                       |> List.map (fun r -> r.ref_name)
                       |> List.sort_uniq String.compare
                     in
                     let ho_params = param_mentions ~locals ~params a in
                     if ho_refs <> [] || ho_params <> [] then
                       ho_args :=
                         {
                           ho_callee = callee;
                           ho_label =
                             (match label with
                              | Asttypes.Labelled n | Asttypes.Optional n ->
                                n
                              | Asttypes.Nolabel -> "");
                           ho_line = line_of fn.exp_loc;
                           ho_kind;
                           ho_refs;
                           ho_params;
                         }
                         :: !ho_args))
              args;
            if List.exists (String.equal canonical) fanout_names then begin
              let closure =
                List.find_map
                  (fun (label, a) ->
                    match (label, a) with
                    | Asttypes.Nolabel, Some a -> Some a
                    | _ -> None)
                  args
              in
              match closure with
              | Some c ->
                let captured, closure_refs, arg_fn =
                  analyze_closure ~locals ~unit_locals c
                in
                fanouts :=
                  {
                    fan_callee = canonical;
                    fan_line = line_of fn.exp_loc;
                    fan_col = col_of fn.exp_loc;
                    fan_context =
                      (match String.index_opt fn_name '.' with
                       | Some i ->
                         String.sub fn_name (i + 1)
                           (String.length fn_name - i - 1)
                       | None -> fn_name);
                    captured;
                    closure_refs;
                    arg_fn;
                  }
                  :: !fanouts
              | None -> ()
            end
          | _ -> ())
       | _ -> ());
      default.expr sub e
    in
    let iter = { default with expr; pat } in
    iter.expr iter vb.vb_expr;
    {
      fn_name;
      fn_file = source;
      fn_line;
      params;
      refs = List.rev !refs;
      inbox_param = !inbox;
      adversary_types = List.sort String.compare !adv_types;
      sinks = List.rev !sinks;
      mutable_global =
        (match Names.mutable_container vb.vb_expr.exp_type with
         | Some kind -> Some kind
         | None ->
           if record_with_mutable_field vb.vb_expr then
             Some "record with mutable fields"
           else None);
      fanouts = List.rev !fanouts;
      ho_args = List.rev !ho_args;
    }
  in
  let arrow_aliases = ref [] in
  let record_arrow_alias ~prefix (d : type_declaration) =
    match d.typ_manifest with
    | Some { ctyp_desc = Ttyp_arrow _; _ } ->
      let name = Ident.name d.typ_id in
      let qualified = prefix ^ "." ^ name in
      arrow_aliases := Names.canonical_ref qualified :: !arrow_aliases;
      (* within the declaring module the constructor path is bare; keep
         the short form too, except the ubiquitous [t] *)
      if not (String.equal name "t") then
        arrow_aliases := name :: !arrow_aliases
    | _ -> ()
  in
  let rec go prefix str =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun vb -> functions := summarize_binding ~prefix vb :: !functions)
            vbs
        | Tstr_type (_, decls) ->
          List.iter (record_arrow_alias ~prefix) decls
        | Tstr_module mb ->
          (match (mb.mb_id, module_structure mb.mb_expr) with
           | Some id, Some inner ->
             go (prefix ^ "." ^ Ident.name id) inner
           | _ -> ())
        | _ -> ())
      str.str_items
  in
  go module_name str;
  {
    u_source = source;
    u_module = module_name;
    u_functions = List.rev !functions;
    u_arrow_aliases = List.sort_uniq String.compare !arrow_aliases;
  }

(* ------------------------------------------------------------------ *)
(* The graph                                                           *)
(* ------------------------------------------------------------------ *)

type t = {
  by_name : (string, fn_summary) Hashtbl.t;  (* qualified fn name *)
  by_canonical : (string, string) Hashtbl.t;  (* last-two-components key *)
  fns : fn_summary list;  (* sorted by fn_name *)
}

let build units =
  let by_name = Hashtbl.create 256 in
  let by_canonical = Hashtbl.create 256 in
  (* Now that every unit's type declarations are known, settle which
     [Ho_alias] arguments name an arrow alias; the rest are data and
     must not feed the instantiation sets. *)
  let arrow_aliases = Hashtbl.create 16 in
  List.iter
    (fun u ->
      List.iter
        (fun a -> Hashtbl.replace arrow_aliases a ())
        u.u_arrow_aliases)
    units;
  let keep_ho (h : ho_arg) =
    match h.ho_kind with
    | Ho_arrow -> true
    | Ho_alias n -> Hashtbl.mem arrow_aliases n
  in
  List.iter
    (fun u ->
      List.iter
        (fun f ->
          let f = { f with ho_args = List.filter keep_ho f.ho_args } in
          if not (Hashtbl.mem by_name f.fn_name) then begin
            Hashtbl.replace by_name f.fn_name f;
            (* Two units may both define a [Structure.restrict]-style
               nested name whose canonical forms collide; keep the
               lexicographically smallest qualified name so resolution
               does not depend on the order units were supplied in. *)
            let canonical = Names.canonical_ref f.fn_name in
            match Hashtbl.find_opt by_canonical canonical with
            | Some prev when String.compare prev f.fn_name <= 0 -> ()
            | _ -> Hashtbl.replace by_canonical canonical f.fn_name
          end)
        u.u_functions)
    units;
  let fns =
    Hashtbl.fold (fun _ f acc -> f :: acc) by_name []
    |> List.sort (fun a b -> String.compare a.fn_name b.fn_name)
  in
  { by_name; by_canonical; fns }

let functions t = t.fns

let find t name = Hashtbl.find_opt t.by_name name

let resolve t ref_name =
  match Hashtbl.find_opt t.by_name ref_name with
  | Some _ -> Some ref_name
  | None -> Hashtbl.find_opt t.by_canonical (Names.canonical_ref ref_name)

let callees t fn =
  match find t fn with
  | None -> []
  | Some f ->
    List.filter_map
      (fun r ->
        match resolve t r.ref_name with
        | Some callee when not (String.equal callee fn) -> Some callee
        | _ -> None)
      f.refs
    |> List.sort_uniq String.compare

let callers t fn =
  List.filter_map
    (fun f ->
      if List.exists (String.equal fn) (callees t f.fn_name) then
        Some f.fn_name
      else None)
    t.fns
  |> List.sort_uniq String.compare

(* Shortest call path from [start] to any function satisfying [accept],
   passing only through functions satisfying [admit].  Deterministic:
   neighbors are explored in sorted order. *)
let shortest_path t ~admit ~accept start =
  if not (admit start) then None
  else begin
    let parent = Hashtbl.create 64 in
    let queue = Queue.create () in
    Hashtbl.replace parent start None;
    Queue.add start queue;
    let found = ref None in
    while !found = None && not (Queue.is_empty queue) do
      let fn = Queue.pop queue in
      if accept fn then found := Some fn
      else
        List.iter
          (fun c ->
            if admit c && not (Hashtbl.mem parent c) then begin
              Hashtbl.replace parent c (Some fn);
              Queue.add c queue
            end)
          (callees t fn)
    done;
    match !found with
    | None -> None
    | Some last ->
      let rec unwind acc fn =
        match Hashtbl.find_opt parent fn with
        | Some (Some prev) -> unwind (fn :: acc) prev
        | _ -> fn :: acc
      in
      Some (unwind [] last)
  end

let to_dot t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph rmt_callgraph {\n";
  Buffer.add_string buf "  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" [label=\"%s\\n%s:%d\"];\n" f.fn_name
           f.fn_name f.fn_file f.fn_line))
    t.fns;
  List.iter
    (fun f ->
      List.iter
        (fun callee ->
          Buffer.add_string buf
            (Printf.sprintf "  \"%s\" -> \"%s\";\n" f.fn_name callee))
        (callees t f.fn_name))
    t.fns;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let stats t =
  let edges =
    List.fold_left (fun acc f -> acc + List.length (callees t f.fn_name)) 0
      t.fns
  in
  (List.length t.fns, edges)
