(* Protocol-model extraction and the R9/R10 rule families.

   Extraction walks a unit's typedtree once and records plain facts
   per function (see model.mli); assembly is pure data over those
   fragments and never reads a typedtree.  The walk is deliberately
   syntactic where the repository is idiomatic — send records are
   [Engine.{ dst; payload }] literals, neighbor fan-out is a fold over
   [Graph.neighbors], relays iterate the [inbox] parameter — and falls
   back to "unbounded" whenever a send-typed value flows through
   something it cannot classify. *)

open Typedtree

type ctx = Top | Inbox | Deg | Inbox_deg | Nodes | Unknown

type call_site = {
  cs_ctx : ctx;
  cs_callee : string;
  cs_passes_inbox : bool;
  cs_returns_sends : bool;
  cs_via : string option;
  cs_pos : int;
}

type fn_facts = {
  f_name : string;
  f_file : string;
  f_line : int;
  f_uses_params : bool;
  f_sends : (ctx * int) list;
  f_calls : call_site list;
  f_constructs : (string * string) list;
  f_matches : (string * string) list;
  f_writes : (string * bool) list;
  f_reads : string list;
  f_inbox_head_only : bool;
  f_uses_round : bool;
  f_dedup_guard : bool;
  f_scope : (string * int * fn_facts) list;
  f_item : int;
  f_rec : bool;
}

type automaton_src = {
  a_owner : string;
  a_file : string;
  a_line : int;
  a_pos : int;
  a_msg_type : string;
  a_init : string;
  a_step : string;
  a_decision : string;
}

type unit_model = {
  um_source : string;
  um_module : string;
  um_fns : fn_facts list;
  um_automata : automaton_src list;
}

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum
let start_of (loc : Location.t) = loc.loc_start.Lexing.pos_cnum
let end_of (loc : Location.t) = loc.loc_end.Lexing.pos_cnum
let inbox_name = "inbox"

let callee_name p =
  match p with
  | Path.Pident _ -> Names.path_name p
  | _ -> Names.canonical_ref (Names.path_name p)

let last_component s =
  match String.rindex_opt s '.' with
  | None -> s
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)

let type_mentions ctor ty =
  List.exists
    (fun n -> String.equal (last_component n) ctor)
    (Names.type_constr_names ty)

let type_mentions_send = type_mentions "send"

let head_of_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (Names.canonical_ref (Names.path_name p))
  | _ -> None

let is_mutable_label (ld : Types.label_description) =
  match ld.lbl_mut with
  | Asttypes.Mutable -> true
  | Asttypes.Immutable -> false

let skipped_ctors = [ "::"; "[]"; "Some"; "None"; "()"; "true"; "false" ]
let skipped_heads = [ "list"; "option"; "bool"; "unit"; "exn" ]

let ctor_entry (cd : Types.constructor_description) =
  if List.mem cd.cstr_name skipped_ctors then None
  else
    match head_of_type cd.cstr_res with
    | Some h
      when (not (List.mem h skipped_heads))
           (* Printf/Format literals elaborate to CamlinternalFormat
              GADT constructors; they are not protocol messages *)
           && not (String.starts_with ~prefix:"CamlinternalFormat" h) ->
      Some (h, cd.cstr_name)
    | _ -> None

(* Iterator recognition: (names, fn-arg index, sequence-arg index among
   positional args, forced context for the sequence if any). *)
type seq_kind = Seq_classify | Seq_unknown

let iterator_specs =
  [
    ( [
        "List.iter"; "List.map"; "List.mapi"; "List.filter_map";
        "List.concat_map"; "List.find_map"; "List.for_all"; "List.exists";
        "List.filter"; "Array.iter"; "Array.map";
      ],
      0, 1, Seq_classify );
    ([ "List.fold_left" ], 0, 2, Seq_classify);
    ([ "Nodeset.fold" ], 0, 1, Seq_classify);
    ([ "Nodeset.iter" ], 0, 1, Seq_classify);
    ([ "Hashtbl.iter"; "Hashtbl.fold"; "Seq.iter"; "Seq.map" ], 0, 1,
      Seq_unknown );
  ]

let iterator_spec name =
  List.find_map
    (fun (names, fi, si, k) ->
      if Names.qualified_matches names name then Some (fi, si, k) else None)
    iterator_specs

(* Evaluated exactly once, produce no sends of their own: walk through. *)
let transparent_names =
  [ "@"; "|>"; "@@"; "List.rev"; "List.append"; "List.rev_append";
    "List.concat"; "Option.value"; "Option.map"; "Option.iter";
    "Option.bind"; "ignore"; "fst"; "snd" ]

let dedup_guard_names = [ "Hashtbl.mem"; "List.mem"; "List.mem_assoc" ]

(* Iterating over [Envelope.slots env] replicates each send by the
   envelope's redundancy factor (drop_budget + 1).  The budget is
   clamped to [Envelope.max_drop_budget] at construction, so a pinned
   constant multiplier is sound — the same deliberate coarseness as
   capping a [Nodes] sequence at n.  Only send {e literals} under the
   iteration get the factor: a send-returning {e call} under it would
   lose it, so such calls are demoted to Unknown (unbounded) instead. *)
let slots_cap = 4

let combine outer inner =
  match (outer, inner) with
  | Top, c | c, Top -> c
  | Inbox, Deg | Deg, Inbox -> Inbox_deg
  | _ -> Unknown

let is_function e =
  match e.exp_desc with Texp_function _ -> true | _ -> false

(* A closure that is stored runs later, not here: a function literal,
   or an application whose result is itself a function (a partial
   application such as [helper arg]). *)
let is_closure e =
  is_function e
  ||
  match (e.exp_desc, Types.get_desc e.exp_type) with
  | Texp_apply _, Types.Tarrow _ -> true
  | _ -> false

let peel_some e =
  match e.exp_desc with
  | Texp_construct (_, cd, [ inner ])
    when String.equal cd.Types.cstr_name "Some" ->
    inner
  | _ -> e

let is_ident_named n e =
  match (peel_some e).exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> String.equal (Ident.name id) n
  | _ -> false

let is_none_literal e =
  match e.exp_desc with
  | Texp_construct (_, cd, []) -> String.equal cd.Types.cstr_name "None"
  | _ -> false

let rec head_only_case : type k. k general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_value v -> head_only_case (v :> value general_pattern)
  | Tpat_construct (_, cd, [ _; tail ], _)
    when String.equal cd.Types.cstr_name "::" -> (
    match tail.pat_desc with Tpat_any -> true | _ -> false)
  | Tpat_or (a, b, _) -> head_only_case a || head_only_case b
  | Tpat_alias (q, _, _) -> head_only_case q
  | _ -> false

let rec cons_case : type k. k general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_value v -> cons_case (v :> value general_pattern)
  | Tpat_construct (_, cd, _, _) -> String.equal cd.Types.cstr_name "::"
  | Tpat_or (a, b, _) -> cons_case a || cons_case b
  | Tpat_alias (q, _, _) -> cons_case q
  | _ -> false

let bare_name_of_pat p =
  match pat_bound_idents p with id :: _ -> Some (Ident.name id) | [] -> None

(* Does an expression mention the inbox, read mutable state, or touch a
   hash table?  Local lists that do none of those are topology-derived
   (Dolev's node-disjoint routes): iterating them is capped at n. *)
let topology_derived e =
  let dirty = ref false in
  let default = Tast_iterator.default_iterator in
  let expr sub e =
    (match e.exp_desc with
     | Texp_ident (Path.Pident id, _, _)
       when String.equal (Ident.name id) inbox_name ->
       dirty := true
     | Texp_ident (p, _, _)
       when Names.qualified_matches [ "Hashtbl.fold"; "Hashtbl.find";
                                      "Hashtbl.find_opt" ]
              (callee_name p) ->
       dirty := true
     | Texp_field (_, _, ld) when is_mutable_label ld -> dirty := true
     | _ -> ());
    default.expr sub e
  in
  let iter = { default with expr } in
  iter.expr iter e;
  not !dirty

(* The automaton literal: a record with exactly these three fields. *)
let automaton_labels fields =
  let names =
    Array.to_list fields
    |> List.map (fun ((ld : Types.label_description), _) -> ld.lbl_name)
    |> List.sort String.compare
  in
  List.equal String.equal names [ "decision"; "init"; "step" ]

let msg_type_of_record ty =
  match Types.get_desc ty with
  | Types.Tconstr (_, [ _state; msg ], _) -> Names.show_type msg
  | _ -> "?"

type collector = {
  c_file : string;
  c_scope : (string * int * fn_facts) list ref;  (** per top-level binding *)
  c_topo : (string, unit) Hashtbl.t;
  c_automata : automaton_src list ref;
  c_owner : string;
}

(* Extract the facts of one function (or plain) expression.  Nested
   function lets, and closures handed to a callee, are extracted
   recursively into the shared scope and not walked inline, so their
   sends are attributed to them and reach callers only through call
   sites.  A closure stored in a record, constructor or tuple (a
   function literal or a partial application, see [is_closure]) is not
   walked at all: the function that builds it does not run it.
   [enclosing] holds the parameters of the functions this one is nested
   in, so a reference to one of them marks that function as using its
   parameters. *)
let rec collect_fn col ?(enclosing = []) ~name ~line expr =
  let params = ref [] in
  let add_param n =
    if (not (String.contains n '*')) && not (List.mem n !params) then
      params := n :: !params
  in
  let body =
    let rec peel e =
      match e.exp_desc with
      | Texp_function { arg_label; cases; _ } -> (
        (match arg_label with
         | Asttypes.Labelled n | Asttypes.Optional n -> add_param n
         | Asttypes.Nolabel -> ());
        match cases with
        | [ c ] ->
          List.iter
            (fun id -> add_param (Ident.name id))
            (pat_bound_idents c.c_lhs);
          peel c.c_rhs
        | _ -> e)
      | _ -> e
    in
    peel expr
  in
  let uses_params = ref false in
  let scopes = (!params, uses_params) :: enclosing in
  let note_ref n =
    List.iter (fun (ps, r) -> if List.mem n ps then r := true) scopes
  in
  (* [from]: the file offset from which references see the binding *)
  let nest n ~line ~from e =
    let facts =
      collect_fn col ~enclosing:scopes ~name:(col.c_owner ^ "." ^ n) ~line e
    in
    col.c_scope := (n, from, facts) :: !(col.c_scope)
  in
  let sends = Hashtbl.create 4 in
  let calls = ref [] in
  let constructs = ref [] in
  let matches = ref [] in
  let writes = ref [] in
  let reads = ref [] in
  let head_match = ref false in
  let full_use = ref false in
  let uses_round = ref false in
  let dedup = ref false in
  let ctx = ref Top in
  let with_ctx c f =
    let old = !ctx in
    ctx := c;
    f ();
    ctx := old
  in
  let mult = ref 1 in
  let with_mult m f =
    let old = !mult in
    mult := !mult * m;
    f ();
    mult := old
  in
  let add_send () =
    let cur = Option.value (Hashtbl.find_opt sends !ctx) ~default:0 in
    Hashtbl.replace sends !ctx (cur + !mult)
  in
  let add_once r v = if not (List.mem v !r) then r := v :: !r in
  let default = Tast_iterator.default_iterator in
  let rec expr_iter sub e =
    match e.exp_desc with
    | Texp_let (rec_flag, vbs, cont) ->
      (* a [let rec] group sees itself; a plain one only its body *)
      let from =
        match rec_flag with
        | Asttypes.Recursive -> start_of e.exp_loc
        | Asttypes.Nonrecursive ->
          List.fold_left (fun acc vb -> max acc (end_of vb.vb_loc)) 0 vbs
      in
      List.iter
        (fun vb ->
          match bare_name_of_pat vb.vb_pat with
          | Some n when is_function vb.vb_expr ->
            nest n ~line:(line_of vb.vb_loc) ~from vb.vb_expr
          | nm ->
            (match nm with
             | Some n when topology_derived vb.vb_expr ->
               Hashtbl.replace col.c_topo n ()
             | _ -> ());
            sub.Tast_iterator.expr sub vb.vb_expr)
        vbs;
      sub.Tast_iterator.expr sub cont
    | Texp_record { fields; extended_expression; _ }
      when automaton_labels fields ->
      let component lbl =
        let value =
          Array.to_list fields
          |> List.find_map (fun ((ld : Types.label_description), def) ->
                 if String.equal ld.lbl_name lbl then
                   match def with Overridden (_, e) -> Some e | Kept _ -> None
                 else None)
        in
        match value with
        | Some v when is_function v ->
          let n = Printf.sprintf "<%s:%d>" lbl (line_of v.exp_loc) in
          nest n ~line:(line_of v.exp_loc) ~from:(start_of v.exp_loc) v;
          n
        | Some { exp_desc = Texp_ident (p, _, _); _ } -> callee_name p
        | _ -> "<unresolved>"
      in
      col.c_automata :=
        {
          a_owner = col.c_owner;
          a_file = col.c_file;
          a_line = line_of e.exp_loc;
          a_pos = end_of e.exp_loc;
          a_msg_type = msg_type_of_record e.exp_type;
          a_init = component "init";
          a_step = component "step";
          a_decision = component "decision";
        }
        :: !(col.c_automata);
      Option.iter (sub.Tast_iterator.expr sub) extended_expression
    | Texp_record { fields; _ }
      when Array.length fields = 2
           && Array.for_all
                (fun ((ld : Types.label_description), _) ->
                  List.mem ld.lbl_name [ "dst"; "payload" ])
                fields ->
      add_send ();
      default.expr sub e
    | Texp_record { fields; extended_expression; _ } ->
      Array.iter
        (fun (_, def) ->
          match def with Overridden (_, v) -> stored sub v | Kept _ -> ())
        fields;
      Option.iter (sub.Tast_iterator.expr sub) extended_expression
    | Texp_construct (_, cd, args) ->
      Option.iter (add_once constructs) (ctor_entry cd);
      List.iter (stored sub) args
    | Texp_tuple es -> List.iter (stored sub) es
    | Texp_setfield (r, _, ld, rhs) ->
      writes := (ld.Types.lbl_name, is_none_literal rhs) :: !writes;
      sub.Tast_iterator.expr sub r;
      sub.Tast_iterator.expr sub rhs
    | Texp_field (r, _, ld) ->
      if is_mutable_label ld then add_once reads ld.Types.lbl_name;
      sub.Tast_iterator.expr sub r
    | Texp_ident (Path.Pident id, _, _) ->
      let n = Ident.name id in
      note_ref n;
      if String.equal n inbox_name then full_use := true;
      if String.equal n "round" then uses_round := true
    | Texp_match (scrut, cases, _) when is_ident_named inbox_name scrut ->
      List.iter
        (fun c ->
          if head_only_case c.c_lhs then head_match := true
          else if cons_case c.c_lhs then full_use := true)
        cases;
      List.iter (fun c -> sub.Tast_iterator.case sub c) cases
    | Texp_while (cond, body) ->
      sub.Tast_iterator.expr sub cond;
      with_ctx Unknown (fun () -> sub.Tast_iterator.expr sub body)
    | Texp_for (_, _, lo, hi, _, body) ->
      sub.Tast_iterator.expr sub lo;
      sub.Tast_iterator.expr sub hi;
      with_ctx Unknown (fun () -> sub.Tast_iterator.expr sub body)
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
      apply_iter sub e (callee_name p) args
    | Texp_apply (fn, args) ->
      (* unknown callee expression producing sends, or running an
         automaton (a runner record's [run] field): unclassifiable *)
      if
        type_mentions_send e.exp_type
        || List.exists
             (fun (_, a) ->
               Option.fold ~none:false
                 ~some:(fun a -> type_mentions "automaton" a.exp_type)
                 a)
             args
      then with_ctx Unknown (fun () -> add_send ());
      sub.Tast_iterator.expr sub fn;
      walk_args sub args
    | _ -> default.expr sub e
  and stored sub v = if not (is_closure v) then sub.Tast_iterator.expr sub v
  (* A closure argument becomes a scope function of its own, called with
     unknown multiplicity; [via] names the callee it is handed to, which
     runs it only if that callee uses its parameters. *)
  and walk_args ?via sub args =
    List.iter
      (fun (_, arg) ->
        match arg with
        | None -> ()
        | Some a when is_function (peel_some a) ->
          let a = peel_some a in
          let pos = a.exp_loc.loc_start in
          let n =
            Printf.sprintf "<fun:%d:%d>" pos.pos_lnum
              (pos.pos_cnum - pos.pos_bol)
          in
          nest n ~line:pos.pos_lnum ~from:pos.pos_cnum a;
          calls :=
            {
              cs_ctx = Unknown;
              cs_callee = n;
              cs_passes_inbox = false;
              cs_returns_sends = false;
              cs_via = via;
              cs_pos = pos.pos_cnum;
            }
            :: !calls
        | Some a -> sub.Tast_iterator.expr sub a)
      args
  and apply_iter sub e name args =
    note_ref name;
    if Names.qualified_matches dedup_guard_names name then dedup := true;
    if Names.qualified_matches transparent_names name then
      List.iter
        (fun (_, arg) -> Option.iter (sub.Tast_iterator.expr sub) arg)
        args
    else
      match iterator_spec name with
      | Some (fn_idx, seq_idx, kind) -> (
        let positional =
          List.filter_map
            (fun (lbl, arg) ->
              match (lbl, arg) with
              | Asttypes.Nolabel, Some a -> Some a
              | _ -> None)
            args
        in
        match (List.nth_opt positional fn_idx, List.nth_opt positional seq_idx)
        with
        | Some farg, Some seq ->
          let slots_iter =
            match kind with
            | Seq_unknown -> false
            | Seq_classify -> (
              match (peel_some seq).exp_desc with
              | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
                Names.qualified_matches [ "Envelope.slots" ] (callee_name p)
              | _ -> false)
          in
          let seq_ctx =
            match kind with
            | Seq_unknown -> Unknown
            | _ when slots_iter ->
              (* constant-length redundancy slots: same context, each
                 send literal under the body counts [slots_cap] times *)
              Top
            | Seq_classify -> (
              let seq = peel_some seq in
              if is_ident_named inbox_name seq then (
                full_use := true;
                Inbox)
              else
                match seq.exp_desc with
                | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _)
                  when Names.qualified_matches [ "Graph.neighbors" ]
                         (callee_name p) ->
                  Deg
                | Texp_ident (Path.Pident id, _, _)
                  when Hashtbl.mem col.c_topo (Ident.name id) ->
                  Nodes
                | _ ->
                  if
                    List.exists
                      (fun n -> String.equal (last_component n) "t"
                                && String.equal n "Nodeset.t")
                      (Names.type_constr_names seq.exp_type)
                  then Nodes
                  else Unknown)
          in
          List.iter
            (fun a -> if a != farg then sub.Tast_iterator.expr sub a)
            positional;
          List.iter
            (fun (lbl, arg) ->
              match lbl with
              | Asttypes.Nolabel -> ()
              | _ -> Option.iter (sub.Tast_iterator.expr sub) arg)
            args;
          with_ctx (combine !ctx seq_ctx) (fun () ->
              if slots_iter then
                with_mult slots_cap (fun () -> sub.Tast_iterator.expr sub farg)
              else sub.Tast_iterator.expr sub farg)
        | _ ->
          (* partial application of an iterator: treat as opaque *)
          if type_mentions_send e.exp_type then
            with_ctx Unknown (fun () -> add_send ());
          walk_args sub args)
      | None ->
        let passes_inbox =
          List.exists
            (fun (lbl, arg) ->
              (match lbl with
               | Asttypes.Labelled n | Asttypes.Optional n ->
                 String.equal n inbox_name
               | Asttypes.Nolabel -> false)
              ||
              match arg with
              | Some a -> is_ident_named inbox_name a
              | None -> false)
            args
        in
        let returns_sends = type_mentions_send e.exp_type in
        calls :=
          {
            cs_ctx =
              (* a send-returning call under a slots multiplier would
                 lose the redundancy factor: refuse to bound it *)
              (if returns_sends && !mult > 1 then Unknown else !ctx);
            cs_callee = name;
            cs_passes_inbox = passes_inbox;
            cs_returns_sends = returns_sends;
            cs_via = None;
            cs_pos = start_of e.exp_loc;
          }
          :: !calls;
        walk_args ~via:name sub args
  in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun sub p ->
    (match p.pat_desc with
     | Tpat_construct (_, cd, _, _) ->
       Option.iter (add_once matches) (ctor_entry cd)
     | _ -> ());
    default.pat sub p
  in
  let iter = { default with expr = expr_iter; pat } in
  iter.expr iter body;
  {
    f_name = name;
    f_file = col.c_file;
    f_line = line;
    f_uses_params = !uses_params;
    f_sends =
      (let rank c =
         match c with
         | Top -> 0
         | Inbox -> 1
         | Deg -> 2
         | Inbox_deg -> 3
         | Nodes -> 4
         | Unknown -> 5
       in
       Hashtbl.fold (fun c n acc -> (c, n) :: acc) sends []
       |> List.sort (fun (c1, n1) (c2, n2) ->
              match Int.compare (rank c1) (rank c2) with
              | 0 -> Int.compare n1 n2
              | d -> d));
    f_calls = List.rev !calls;
    f_constructs = List.sort compare !constructs;
    f_matches = List.sort compare !matches;
    f_writes = List.rev !writes;
    f_reads = List.sort String.compare !reads;
    f_inbox_head_only = !head_match && not !full_use;
    f_uses_round = !uses_round;
    f_dedup_guard = !dedup;
    f_scope = [];
    f_item = 0;
    f_rec = false;
  }

let extract ~source str =
  let module_name = Names.module_of_source source in
  let fns = ref [] in
  let automata = ref [] in
  let item_no = ref 0 in
  let rec items prefix str_items =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (rec_flag, vbs) ->
          incr item_no;
          List.iter
            (fun vb ->
              match bare_name_of_pat vb.vb_pat with
              | None -> ()
              | Some bare ->
                let qualified = prefix ^ "." ^ bare in
                let col =
                  {
                    c_file = source;
                    c_scope = ref [];
                    c_topo = Hashtbl.create 4;
                    c_automata = automata;
                    c_owner = qualified;
                  }
                in
                let facts =
                  collect_fn col ~name:qualified ~line:(line_of vb.vb_loc)
                    vb.vb_expr
                in
                fns :=
                  {
                    facts with
                    f_scope = List.rev !(col.c_scope);
                    f_item = !item_no;
                    f_rec =
                      (match rec_flag with
                       | Asttypes.Recursive -> true
                       | Asttypes.Nonrecursive -> false);
                  }
                  :: !fns)
            vbs
        | Tstr_module mb -> (
          match (mb.mb_id, mb.mb_expr.mod_desc) with
          | Some id, Tmod_structure s ->
            items (prefix ^ "." ^ Ident.name id) s.str_items
          | _ -> ())
        | Tstr_recmodule mbs ->
          List.iter
            (fun mb ->
              match (mb.mb_id, mb.mb_expr.mod_desc) with
              | Some id, Tmod_structure s ->
                items (prefix ^ "." ^ Ident.name id) s.str_items
              | _ -> ())
            mbs
        | _ -> ())
      str_items
  in
  items module_name str.str_items;
  {
    um_source = source;
    um_module = module_name;
    um_fns = List.rev !fns;
    um_automata = List.rev !automata;
  }

(* ------------------------------------------------------------------ *)
(* Bounds                                                              *)
(* ------------------------------------------------------------------ *)

type bound = {
  b_const : int;
  b_deg : int;
  b_nodes : int;
  b_inbox : int;
  b_inbox_deg : int;
  b_unbounded : bool;
}

let zero_bound =
  {
    b_const = 0;
    b_deg = 0;
    b_nodes = 0;
    b_inbox = 0;
    b_inbox_deg = 0;
    b_unbounded = false;
  }

let unbounded = { zero_bound with b_unbounded = true }

let is_zero b =
  b.b_const = 0 && b.b_deg = 0 && b.b_nodes = 0 && b.b_inbox = 0
  && b.b_inbox_deg = 0
  && not b.b_unbounded

let add_bound a b =
  {
    b_const = a.b_const + b.b_const;
    b_deg = a.b_deg + b.b_deg;
    b_nodes = a.b_nodes + b.b_nodes;
    b_inbox = a.b_inbox + b.b_inbox;
    b_inbox_deg = a.b_inbox_deg + b.b_inbox_deg;
    b_unbounded = a.b_unbounded || b.b_unbounded;
  }

let scale k b =
  {
    b_const = k * b.b_const;
    b_deg = k * b.b_deg;
    b_nodes = k * b.b_nodes;
    b_inbox = k * b.b_inbox;
    b_inbox_deg = k * b.b_inbox_deg;
    b_unbounded = b.b_unbounded;
  }

(* Context multiplication: only a bound already reduced to the matching
   shape survives; everything else degrades to unbounded. *)
let ctx_mult c b =
  if is_zero b then zero_bound
  else
    let only_const =
      b.b_deg = 0 && b.b_nodes = 0 && b.b_inbox = 0 && b.b_inbox_deg = 0
      && not b.b_unbounded
    in
    match c with
    | Top -> b
    | Inbox ->
      if only_const then { zero_bound with b_inbox = b.b_const }
      else if
        b.b_nodes = 0 && b.b_inbox = 0 && b.b_inbox_deg = 0
        && not b.b_unbounded
      then { zero_bound with b_inbox = b.b_const; b_inbox_deg = b.b_deg }
      else unbounded
    | Deg ->
      if only_const then { zero_bound with b_deg = b.b_const } else unbounded
    | Nodes ->
      if only_const then { zero_bound with b_nodes = b.b_const }
      else unbounded
    | Inbox_deg ->
      if only_const then { zero_bound with b_inbox_deg = b.b_const }
      else unbounded
    | Unknown -> unbounded

let bound_to_string b =
  if b.b_unbounded then "unbounded"
  else
    let terms =
      List.filter_map
        (fun (k, t) ->
          if k = 0 then None
          else if t = "" then Some (string_of_int k)
          else if k = 1 then Some t
          else Some (Printf.sprintf "%d·%s" k t))
        [
          (b.b_const, ""); (b.b_deg, "deg(v)"); (b.b_nodes, "n");
          (b.b_inbox, "|inbox|"); (b.b_inbox_deg, "|inbox|·deg(v)");
        ]
    in
    match terms with [] -> "0" | _ -> String.concat " + " terms

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a > max_int / 2 / b then max_int / 2
  else a * b

let sat_add a b = if a > max_int / 2 - b then max_int / 2 else a + b

let concretize b ~num_nodes ~sum_deg ~max_deg ~prev =
  if b.b_unbounded then max_int
  else
    sat_add
      (sat_mul b.b_const num_nodes)
      (sat_add
         (sat_mul b.b_deg sum_deg)
         (sat_add
            (sat_mul b.b_nodes (sat_mul num_nodes num_nodes))
            (sat_add
               (sat_mul b.b_inbox prev)
               (sat_mul b.b_inbox_deg (sat_mul prev max_deg)))))

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

type protocol = {
  p_name : string;
  p_file : string;
  p_line : int;
  p_msg_type : string;
  p_alphabet : string list;
  p_handled : string list;
  p_decision_reads : string list;
  p_round_sensitive : bool;
  p_dedup_guarded : bool;
  p_init : bound;
  p_step : bound;
}

type helper = {
  h_name : string;
  h_file : string;
  h_line : int;
  h_bound : bound;
}

type t = {
  protocols : protocol list;
  helpers : helper list;
  findings : Finding.t list;
}

(* A resolution environment: the owner binding's flat local scope, the
   defining unit's module-level bindings, then the whole program.  A
   reference's file offset picks, among same-named local bindings, the
   last one visible there; the referring top-level binding's unit and
   [let] ordinal do the same among the unit's bindings. *)
type env = {
  e_scope : (string * int * fn_facts) list;
  e_module : string;
  e_file : string;
  e_item : int;
  e_units : (string, fn_facts list) Hashtbl.t;
      (** canonical [Module.fn] ↦ its bindings, in definition order *)
}

(* The environment a top-level binding's own references resolve in. *)
let env_of (f : fn_facts) ~modname units =
  { e_scope = f.f_scope; e_module = modname; e_file = f.f_file;
    e_item = f.f_item; e_units = units }

(* Whether a reference from [env] sees top-level binding [f]: always
   from another unit; from its own unit only from a later [let], or
   from its own [let rec]. *)
let visible env (f : fn_facts) =
  (not (String.equal f.f_file env.e_file))
  || f.f_item < env.e_item
  || (f.f_rec && f.f_item = env.e_item)

let resolve env ~pos name =
  let local =
    List.fold_left
      (fun found (n, from, f) ->
        if String.equal n name && from <= pos then Some f else found)
      None env.e_scope
  in
  match local with
  | Some f -> Some (f, env)
  | None ->
    let lookup key =
      let candidates =
        Option.value ~default:[] (Hashtbl.find_opt env.e_units key)
      in
      match List.rev (List.filter (visible env) candidates) with
      | f :: _ ->
        let owner_module =
          match String.index_opt f.f_name '.' with
          | Some i -> String.sub f.f_name 0 i
          | None -> env.e_module
        in
        Some (f, env_of f ~modname:owner_module env.e_units)
      | [] -> None
    in
    if String.contains name '.' then lookup (Names.canonical_ref name)
    else lookup (Names.canonical_ref (env.e_module ^ "." ^ name))

(* The send bound of every function reachable from [roots], computed
   once per function, callees first, over the call graph's SCCs.  A
   function's bound composes its own sends with its callees' bounds by
   context multiplication.  A call cycle cannot be bounded by
   composition: a cyclic component whose members send anything (their
   own sends or a callee outside the cycle) is unbounded as a whole,
   while a send-free one (tail_of, hop_after) stays zero and never
   poisons its callers.  A function is identified by its name and
   line, so a top-level binding shadowing one of the same name is a
   function of its own; its calls resolve in the environment of the
   first root or call that reached it, which for a top-level binding
   is its own. *)
let send_bounds roots =
  let key (f : fn_facts) = Printf.sprintf "%s:%d" f.f_name f.f_line in
  let nodes = Hashtbl.create 512 in
  let keys = ref [] in
  let rec add ((f : fn_facts), env) =
    if not (Hashtbl.mem nodes (key f)) then begin
      let runs cs =
        match Option.bind cs.cs_via (resolve env ~pos:cs.cs_pos) with
        | Some (g, _) -> g.f_uses_params
        | None -> true
      in
      let calls =
        List.filter_map
          (fun cs ->
            if runs cs then Some (cs, resolve env ~pos:cs.cs_pos cs.cs_callee)
            else None)
          f.f_calls
      in
      Hashtbl.replace nodes (key f) (f, calls);
      keys := key f :: !keys;
      List.iter (fun (_, callee) -> Option.iter add callee) calls
    end
  in
  List.iter add roots;
  let callees k =
    List.filter_map
      (fun (_, callee) -> Option.map (fun (g, _) -> key g) callee)
      (snd (Hashtbl.find nodes k))
  in
  let bounds = Hashtbl.create 512 in
  let local ~component k =
    let f, calls = Hashtbl.find nodes k in
    let own =
      List.fold_left
        (fun acc (c, n) ->
          add_bound acc (ctx_mult c (scale n { zero_bound with b_const = 1 })))
        zero_bound f.f_sends
    in
    List.fold_left
      (fun acc (cs, callee) ->
        match callee with
        | None -> if cs.cs_returns_sends then add_bound acc unbounded else acc
        | Some (g, _) when List.mem (key g) component -> acc
        | Some (g, _) ->
          let cb = Hashtbl.find bounds (key g) in
          let cb =
            if cs.cs_passes_inbox || (cb.b_inbox = 0 && cb.b_inbox_deg = 0)
            then cb
            else
              (* inbox-shaped bound applied to some other list *)
              add_bound { cb with b_inbox = 0; b_inbox_deg = 0 } unbounded
          in
          add_bound acc (ctx_mult cs.cs_ctx cb))
      own calls
  in
  List.iter
    (fun component ->
      match component with
      | [ k ] when not (List.mem k (callees k)) ->
        Hashtbl.replace bounds k (local ~component k)
      | _ ->
        let b =
          if List.for_all (fun k -> is_zero (local ~component k)) component
          then zero_bound
          else unbounded
        in
        List.iter (fun k -> Hashtbl.replace bounds k b) component)
    (Fixpoint.scc ~nodes:!keys ~succs:callees);
  fun f -> Hashtbl.find bounds (key f)

(* Functions reachable from a set of roots, named at file offset [pos],
   through resolvable calls. *)
let reachable env ~pos roots =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec go env (f : fn_facts) =
    let key = (f.f_name, f.f_line) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      acc := f :: !acc;
      List.iter
        (fun cs ->
          match resolve env ~pos:cs.cs_pos cs.cs_callee with
          | Some (callee, cenv) -> go cenv callee
          | None -> ())
        f.f_calls
    end
  in
  List.iter
    (fun name ->
      match resolve env ~pos name with
      | Some (callee, cenv) -> go cenv callee
      | None -> ())
    roots;
  List.rev !acc

let dedup_sorted l = List.sort_uniq String.compare l

let assemble units =
  let units =
    List.sort (fun a b -> String.compare a.um_source b.um_source) units
  in
  (* first-unit-wins canonical table, like Callgraph.build; a unit that
     binds a name more than once keeps every binding, in order *)
  let table = Hashtbl.create 256 in
  List.iter
    (fun um ->
      List.iter
        (fun (f : fn_facts) ->
          let key = Names.canonical_ref f.f_name in
          match Hashtbl.find_opt table key with
          | None -> Hashtbl.replace table key [ f ]
          | Some ((g : fn_facts) :: _ as fs) when String.equal g.f_file f.f_file
            ->
            Hashtbl.replace table key (fs @ [ f ])
          | Some _ -> ())
        um.um_fns)
    units;
  let findings = ref [] in
  let add_finding f =
    if
      not
        (List.exists
           (fun g -> String.equal (Finding.fingerprint g) (Finding.fingerprint f))
           !findings)
    then findings := f :: !findings
  in
  (* Each automaton's components resolve in its constructor's local
     scope first. *)
  let automata =
    List.concat_map
      (fun um ->
        let env0 =
          { e_scope = []; e_module = um.um_module; e_file = um.um_source;
            e_item = max_int; e_units = table }
        in
        List.map
          (fun (a : automaton_src) ->
            match resolve env0 ~pos:a.a_pos (last_component a.a_owner) with
            | Some (_, owner_env) -> (a, owner_env)
            | None -> (a, env0))
          um.um_automata)
      units
  in
  (* helper table roots: every module-level function, minus automaton
     constructors (their sends happen per round, not per call). *)
  let constructor_names =
    List.map (fun ((a : automaton_src), _) -> a.a_owner) automata
  in
  let helper_roots =
    List.concat_map
      (fun um ->
        List.filter_map
          (fun (f : fn_facts) ->
            if List.mem f.f_name constructor_names then None
            else Some (f, env_of f ~modname:um.um_module table))
          um.um_fns)
      units
  in
  let bound =
    send_bounds
      (helper_roots
      @ List.concat_map
          (fun ((a : automaton_src), env) ->
            List.filter_map (resolve env ~pos:a.a_pos) [ a.a_init; a.a_step ])
          automata)
  in
  let protocols =
    List.map
      (fun ((a : automaton_src), env) ->
        let comp name = resolve env ~pos:a.a_pos name in
        let bound_of_comp name =
          match comp name with
          | Some (f, _) -> bound f
          | None -> unbounded
        in
        let init_b = bound_of_comp a.a_init in
        let step_b = bound_of_comp a.a_step in
        let span = reachable env ~pos:a.a_pos [ a.a_init; a.a_step ] in
        let state_heads =
          match comp a.a_decision with
          | Some (d, _) -> dedup_sorted (List.map fst d.f_matches)
          | None -> []
        in
        let message_ctors sel =
          List.concat_map
            (fun (f : fn_facts) ->
              List.filter_map
                (fun (h, c) ->
                  if List.mem h state_heads then None else Some c)
                (sel f))
            span
          |> dedup_sorted
        in
        let alphabet = message_ctors (fun f -> f.f_constructs) in
        let handled = message_ctors (fun f -> f.f_matches) in
        let decision_reads =
          match comp a.a_decision with
          | Some (d, _) -> d.f_reads
          | None -> []
        in
        let bare = last_component a.a_owner in
        (* R9a: decision write-once.  Any step-reachable assignment to
           a field the decision reads must be guarded by a read of
           that field in the same function, and must never be a
           literal None. *)
        List.iter
          (fun (f : fn_facts) ->
            List.iter
              (fun (lbl, none_rhs) ->
                if List.mem lbl decision_reads then
                  if none_rhs then
                    add_finding
                      (Finding.make ~rule:"R9" ~file:f.f_file
                         ~line:f.f_line ~context:(last_component f.f_name)
                         (Printf.sprintf
                            "decision reset: `%s <- None' is reachable \
                             from `%s''s step — a committed decision \
                             must be write-once"
                            lbl bare))
                  else if not (List.mem lbl f.f_reads) then
                    add_finding
                      (Finding.make ~rule:"R9" ~file:f.f_file
                         ~line:f.f_line ~context:(last_component f.f_name)
                         (Printf.sprintf
                            "unguarded decision write: `%s' is assigned \
                             without reading it first, so a step \
                             reachable from `%s' can overwrite a \
                             committed Some with a different value"
                            lbl bare)))
              f.f_writes)
          span;
        (* R9b: head-only inbox consumption in the step component. *)
        (match comp a.a_step with
         | Some (s, _) when s.f_inbox_head_only ->
           add_finding
             (Finding.make ~rule:"R9" ~file:a.a_file ~line:s.f_line
                ~context:bare
                (Printf.sprintf
                   "step consumes only the head of its inbox: `%s' \
                    adopts the first delivery of the round and \
                    discards the rest, so the decision depends on \
                    delivery order within a round"
                   bare))
         | _ -> ());
        (* R9c: handler totality over the honest-sent alphabet. *)
        let missing =
          List.filter (fun c -> not (List.mem c handled)) alphabet
        in
        if missing <> [] then
          add_finding
            (Finding.make ~rule:"R9" ~file:a.a_file ~line:a.a_line
               ~context:bare
               (Printf.sprintf
                  "handler totality: message constructor(s) %s are sent \
                   by honest code but matched by no step-reachable case"
                  (String.concat ", " missing)));
        (* R10: the communication budget must be finite. *)
        if init_b.b_unbounded || step_b.b_unbounded then
          add_finding
            (Finding.make ~rule:"R10" ~file:a.a_file ~line:a.a_line
               ~context:bare
               (Printf.sprintf
                  "unbounded per-step send bound (init: %s, step: %s): \
                   the static communication budget cannot be \
                   concretized for this automaton"
                  (bound_to_string init_b) (bound_to_string step_b)));
        let round_sensitive, dedup_guarded =
          List.fold_left
            (fun (r, d) (f : fn_facts) ->
              (r || f.f_uses_round, d || f.f_dedup_guard))
            (false, false) span
        in
        {
          p_name = a.a_owner;
          p_file = a.a_file;
          p_line = a.a_line;
          p_msg_type = a.a_msg_type;
          p_alphabet = alphabet;
          p_handled = handled;
          p_decision_reads = decision_reads;
          p_round_sensitive = round_sensitive;
          p_dedup_guarded = dedup_guarded;
          p_init = init_b;
          p_step = step_b;
        })
      automata
  in
  let helpers =
    List.filter_map
      (fun ((f : fn_facts), _) ->
        let b = bound f in
        if is_zero b then None
        else
          Some
            { h_name = f.f_name; h_file = f.f_file; h_line = f.f_line;
              h_bound = b })
      helper_roots
    |> List.sort (fun a b -> String.compare a.h_name b.h_name)
  in
  {
    protocols =
      List.sort (fun a b -> String.compare a.p_name b.p_name) protocols;
    helpers;
    findings = List.sort Finding.compare !findings;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let matches_only only (p : protocol) =
  let low = String.lowercase_ascii in
  let o = low only in
  let n = low p.p_name in
  String.equal o n
  || String.equal o (low (last_component p.p_name))
  ||
  match String.index_opt p.p_name '.' with
  | Some i -> String.equal o (low (String.sub p.p_name 0 i))
  | None -> false

let find t name =
  List.find_opt (matches_only name) t.protocols

let filter_protocols only t =
  match only with
  | None -> t.protocols
  | Some o -> List.filter (matches_only o) t.protocols

let render_text ?only t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%s (%s:%d)\n" p.p_name p.p_file p.p_line);
      Buffer.add_string buf
        (Printf.sprintf "  message type:   %s\n" p.p_msg_type);
      Buffer.add_string buf
        (Printf.sprintf "  alphabet:       [%s]\n"
           (String.concat "; " p.p_alphabet));
      Buffer.add_string buf
        (Printf.sprintf "  handled:        [%s]\n"
           (String.concat "; " p.p_handled));
      Buffer.add_string buf
        (Printf.sprintf "  decision reads: [%s]\n"
           (String.concat "; " p.p_decision_reads));
      Buffer.add_string buf
        (Printf.sprintf "  round-sensitive: %b, dedup-guarded: %b\n"
           p.p_round_sensitive p.p_dedup_guarded);
      Buffer.add_string buf
        (Printf.sprintf "  init sends:     %s per node\n"
           (bound_to_string p.p_init));
      Buffer.add_string buf
        (Printf.sprintf "  step sends:     %s per activation\n"
           (bound_to_string p.p_step)))
    (filter_protocols only t);
  (match only with
   | Some _ -> ()
   | None ->
     if t.helpers <> [] then begin
       Buffer.add_string buf "send helpers:\n";
       List.iter
         (fun h ->
           Buffer.add_string buf
             (Printf.sprintf "  %-24s %s per call (%s:%d)\n" h.h_name
                (bound_to_string h.h_bound) h.h_file h.h_line))
         t.helpers
     end);
  Buffer.contents buf

let json_string s = "\"" ^ Finding.json_escape s ^ "\""

let json_list l = "[" ^ String.concat ", " (List.map json_string l) ^ "]"

let bound_json b =
  Printf.sprintf
    "{\"const\": %d, \"deg\": %d, \"nodes\": %d, \"inbox\": %d, \
     \"inbox_deg\": %d, \"unbounded\": %b, \"symbolic\": %s}"
    b.b_const b.b_deg b.b_nodes b.b_inbox b.b_inbox_deg b.b_unbounded
    (json_string (bound_to_string b))

let render_json ?only t =
  let protocol_json p =
    Printf.sprintf
      "    {\"name\": %s, \"file\": %s, \"line\": %d, \"msg_type\": %s,\n\
      \     \"alphabet\": %s, \"handled\": %s, \"decision_reads\": %s,\n\
      \     \"round_sensitive\": %b, \"dedup_guarded\": %b,\n\
      \     \"init\": %s,\n\
      \     \"step\": %s}"
      (json_string p.p_name)
      (json_string (Finding.normalize_path p.p_file))
      p.p_line (json_string p.p_msg_type) (json_list p.p_alphabet)
      (json_list p.p_handled)
      (json_list p.p_decision_reads)
      p.p_round_sensitive p.p_dedup_guarded (bound_json p.p_init)
      (bound_json p.p_step)
  in
  let helper_json h =
    Printf.sprintf "    {\"name\": %s, \"file\": %s, \"line\": %d, \"bound\": %s}"
      (json_string h.h_name)
      (json_string (Finding.normalize_path h.h_file))
      h.h_line (bound_json h.h_bound)
  in
  Printf.sprintf
    "{\n\
    \  \"schema\": \"rmt-lint-model/1\",\n\
    \  \"protocols\": [\n%s\n  ],\n\
    \  \"helpers\": [\n%s\n  ]\n\
     }\n"
    (String.concat ",\n" (List.map protocol_json (filter_protocols only t)))
    (String.concat ",\n"
       (List.map helper_json
          (match only with Some _ -> [] | None -> t.helpers)))

let fingerprint t = Digest.to_hex (Digest.string (render_json t))
