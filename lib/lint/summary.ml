(* Bottom-up per-function effect summaries over the call graph.

   Each function gets one {!effects} record — does it mutate top-level
   state, draw nondeterminism, bind adversary-controlled data, decide,
   reach a Theorem-4 sanitizer of either family, acquire locks, reach
   allocation-heavy compute, spawn domains, may-raise — computed over
   {!Fixpoint}'s SCC condensation so that a callee's summary is final
   before any caller reads it and only genuinely recursive cycles
   iterate.  The interprocedural passes (R4 via {!Lock}, R6 {!Race}, R7
   {!Taint}, R8 {!Lock}) are clients of the resulting {!store}; none of
   them re-walks the program.

   Two fixpoints beyond the plain effect propagation:

   - {e instantiation sets} make R7 higher-order aware.  Every
     higher-order argument site recorded by {!Callgraph} contributes the
     argument's resolved references to the callee's [s_inst]; when the
     argument mentions a parameter of the enclosing function, the
     enclosing function's own instantiations flow through as well
     (name-based, so a let-rebinding that shadows the parameter under
     the same name still carries the flow).  Effect propagation then
     treats [s_inst] members as callees, so [Zcpa.automaton]'s [decider]
     parameter is credited with the sanitizers of whatever its callers
     actually pass — discharging the zcpa.ml R7 pin by analysis.

   - {e locked-only} is a least fixpoint over referrers: a function is
     locked-only when it is referenced at least once and every referring
     site is either inside a critical section (a closure passed to a
     lock-acquiring wrapper) or in a function that is itself locked-only.
     A mutable global every open reference to which comes from
     locked-only functions is {e lock-protected} — the analyzed form of
     the old hand-written hc.ml carve-outs.  Initializing to false makes
     unreferenced state unprotected, which is the safe direction. *)

type effects = {
  s_fn : string;
  s_file : string;
  s_line : int;
  s_mutates : bool;
  s_nondet : bool;
  s_source : bool;
  s_sinks : int;
  s_cover : bool;
  s_conn : bool;
  s_locks : bool;
  s_heavy : bool;
  s_spawns : bool;
  s_may_raise : bool;
  s_locked_only : bool;
  s_inst : string list;
}

(* ------------------------------------------------------------------ *)
(* Name classes                                                        *)
(* ------------------------------------------------------------------ *)

(* The Theorem-4 sanitizer families (shared with Taint, which owns the
   prose rationale; Paths.find_simple_path is deliberately absent from
   the connectivity list — a mere claimed path is adversary-
   satisfiable). *)
let cover_sanitizers =
  [
    "Cut.find_rmt_cut";
    "Cut.find_rmt_zpp_cut";
    "Cut.is_rmt_cut";
    "Solvability.is_solvable";
    "Solvability.partial_knowledge";
    "Solvability.ad_hoc";
    "Solvability.feasibility_equal";
    "Structure.mem";
    "Structure.maximal_sets";
    "Subset_enum.connected_supersets";
  ]

let connectivity_sanitizers =
  [
    "Connectivity.connected";
    "Connectivity.connected_avoiding";
    "Connectivity.is_cut";
    "Paths.shortest_path";
    "Flood.trail_ok";
  ]

(* Allocation-heavy compute that must never run while the global
   memo mutex is held: the enumerative core and the fan-out engines.
   Structure.equal and friends are NOT here — the memo's key equality
   runs them under the lock by design, and they are comparisons, not
   enumeration. *)
let heavy_names =
  [
    "Structure.restrict";
    "Structure.join";
    "Solvability.is_solvable";
    "Solvability.partial_knowledge";
    "Solvability.ad_hoc";
    "Solvability.feasibility_equal";
    "Cut.find_rmt_cut";
    "Cut.find_rmt_zpp_cut";
    "Subset_enum.connected_supersets";
    "Subset_enum.connected_supersets_acc";
    "Parsweep.map";
    "Parsweep.map_list";
  ]

let lock_acquire_names = [ "Mutex.lock"; "Mutex.protect" ]
let nondet_names = [ "Sys.time"; "Unix.gettimeofday"; "Unix.time" ]

let may_raise_last = [ "failwith"; "invalid_arg"; "raise"; "raise_notrace" ]

let last_component name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let is_cover_name n = Names.qualified_matches cover_sanitizers n
let is_conn_name n = Names.qualified_matches connectivity_sanitizers n
let is_heavy_name n = Names.qualified_matches heavy_names n
let is_lock_acquire_name n = Names.qualified_matches lock_acquire_names n
let is_raw_lock_name n = Names.qualified_matches [ "Mutex.lock" ] n
let is_unlock_name n = Names.qualified_matches [ "Mutex.unlock" ] n
let is_protect_name n = Names.qualified_matches [ "Fun.protect" ] n
let is_may_raise_name n = List.mem (last_component n) may_raise_last

let is_nondet_name n =
  String.equal n "Random"
  || String.starts_with ~prefix:"Random." n
  || Names.qualified_matches nondet_names n

(* ------------------------------------------------------------------ *)
(* The store                                                           *)
(* ------------------------------------------------------------------ *)

type store = {
  st_graph : Callgraph.t;
  st_effects : (string, effects) Hashtbl.t;
  st_protected : (string, unit) Hashtbl.t;
}

let graph st = st.st_graph
let find st name = Hashtbl.find_opt st.st_effects name

let all st =
  Hashtbl.fold (fun _ e acc -> e :: acc) st.st_effects []
  |> List.sort (fun a b -> String.compare a.s_fn b.s_fn)

let cover_sanitized st name =
  match find st name with Some e -> e.s_cover | None -> false

let conn_sanitized st name =
  match find st name with Some e -> e.s_conn | None -> false

let lock_protected st name = Hashtbl.mem st.st_protected name

(* A reference names a lock-acquiring wrapper when it is Mutex.protect
   itself or resolves to a function that directly acquires — Hc.locked
   is the canonical case.  A closure passed to such a callee runs as a
   critical section. *)
let wrapper_of graph callee =
  Names.qualified_matches [ "Mutex.protect" ] callee
  ||
  match Callgraph.resolve graph callee with
  | None -> false
  | Some q ->
    (match Callgraph.find graph q with
     | None -> false
     | Some f ->
       List.exists
         (fun (r : Callgraph.ref_site) -> is_lock_acquire_name r.ref_name)
         f.refs)

let lock_wrapper st callee = wrapper_of st.st_graph callee

(* ------------------------------------------------------------------ *)
(* Inference                                                           *)
(* ------------------------------------------------------------------ *)

(* [crit_names graph f] — reference names occurring inside closures [f]
   passes to lock-acquiring wrappers.  Name-level: a name used both
   inside and outside the critical closure counts as critical, which
   errs toward protection only when the open use is in the same
   function that already holds the lock discipline. *)
let crit_names_of ~wrapper (f : Callgraph.fn_summary) =
  List.fold_left
    (fun acc (h : Callgraph.ho_arg) ->
      if wrapper h.ho_callee then
        List.fold_left (fun acc r -> r :: acc) acc h.ho_refs
      else acc)
    [] f.ho_args
  |> List.sort_uniq String.compare

(* Referrer index: for every defined function [q], which functions
   reference it at all, and which reference it through an open (non-
   critical) site. *)
let referrer_index graph ~wrapper =
  let any = Hashtbl.create 256 in
  let open_callers = Hashtbl.create 256 in
  List.iter
    (fun (f : Callgraph.fn_summary) ->
      let crit = crit_names_of ~wrapper f in
      let is_crit n = List.exists (String.equal n) crit in
      List.iter
        (fun (r : Callgraph.ref_site) ->
          match Callgraph.resolve graph r.ref_name with
          | None -> ()
          | Some q when String.equal q f.fn_name -> ()
          | Some q ->
            Hashtbl.replace any q ();
            if not (is_crit r.ref_name) then begin
              let prev =
                Option.value (Hashtbl.find_opt open_callers q) ~default:[]
              in
              if not (List.exists (String.equal f.fn_name) prev) then
                Hashtbl.replace open_callers q (f.fn_name :: prev)
            end)
        f.refs)
    (Callgraph.functions graph);
  let referenced q = Hashtbl.mem any q in
  let open_callers q =
    Option.value (Hashtbl.find_opt open_callers q) ~default:[]
    |> List.sort String.compare
  in
  (referenced, open_callers)

let protected_of graph ~locked_only =
  let referenced, open_callers =
    referrer_index graph ~wrapper:(wrapper_of graph)
  in
  let protected_tbl = Hashtbl.create 32 in
  List.iter
    (fun (f : Callgraph.fn_summary) ->
      if f.mutable_global <> None then begin
        let q = f.fn_name in
        if referenced q && List.for_all locked_only (open_callers q) then
          Hashtbl.replace protected_tbl q ()
      end)
    (Callgraph.functions graph);
  protected_tbl

let infer graph =
  let fns = Callgraph.functions graph in
  let nodes = List.map (fun (f : Callgraph.fn_summary) -> f.fn_name) fns in
  (* --- instantiation sets -------------------------------------------- *)
  (* flows: target function -> (caller, resolved argument refs, does the
     argument mention a caller parameter).  The caller's own inst set
     flows into the target exactly when a parameter is mentioned. *)
  let flows = Hashtbl.create 64 in
  List.iter
    (fun (f : Callgraph.fn_summary) ->
      List.iter
        (fun (h : Callgraph.ho_arg) ->
          match Callgraph.resolve graph h.ho_callee with
          | None -> ()
          | Some target ->
            let resolved =
              List.filter_map (Callgraph.resolve graph) h.ho_refs
              |> List.filter (fun q -> not (String.equal q target))
              |> List.sort_uniq String.compare
            in
            let pflow = h.ho_params <> [] in
            if resolved <> [] || pflow then begin
              let prev =
                Option.value (Hashtbl.find_opt flows target) ~default:[]
              in
              Hashtbl.replace flows target
                ((f.fn_name, resolved, pflow) :: prev)
            end)
        f.ho_args)
    fns;
  let inst =
    Fixpoint.solve ~nodes
      ~succs:(fun n ->
        match Hashtbl.find_opt flows n with
        | None -> []
        | Some l -> List.filter_map (fun (c, _, p) -> if p then Some c else None) l)
      ~equal:(List.equal String.equal)
      ~init:(fun _ -> [])
      ~transfer:(fun ~get n ->
        match Hashtbl.find_opt flows n with
        | None -> []
        | Some l ->
          List.concat_map
            (fun (c, resolved, pflow) ->
              if pflow then resolved @ get c else resolved)
            l
          |> List.filter (fun q -> not (String.equal q n))
          |> List.sort_uniq String.compare)
  in
  (* --- effect propagation over callees ∪ inst ------------------------ *)
  let base n =
    match Callgraph.find graph n with
    | None ->
      {
        s_fn = n;
        s_file = "?";
        s_line = 0;
        s_mutates = false;
        s_nondet = false;
        s_source = false;
        s_sinks = 0;
        s_cover = false;
        s_conn = false;
        s_locks = false;
        s_heavy = false;
        s_spawns = false;
        s_may_raise = false;
        s_locked_only = false;
        s_inst = [];
      }
    | Some f ->
      let has p =
        List.exists (fun (r : Callgraph.ref_site) -> p r.ref_name) f.refs
      in
      {
        s_fn = f.fn_name;
        s_file = f.fn_file;
        s_line = f.fn_line;
        s_mutates = f.mutable_global <> None;
        s_nondet = has is_nondet_name;
        s_source = f.inbox_param || f.adversary_types <> [];
        s_sinks = List.length f.sinks;
        s_cover = has is_cover_name;
        s_conn = has is_conn_name;
        s_locks = has is_lock_acquire_name;
        s_heavy = has is_heavy_name;
        s_spawns = f.fanouts <> [];
        s_may_raise = has is_may_raise_name;
        s_locked_only = false;
        s_inst = inst n;
      }
  in
  (* Effects propagate over real call edges only.  Folding [inst] into
     the succs would let a generic combinator (Nodeset.fold, Hashtbl
     wrappers) mix every caller's closures into one summary and leak
     one caller's sanitizer to another — the instantiation hop is
     applied once, below, at the function that receives the argument. *)
  let succs n = Callgraph.callees graph n in
  (* Only the or-folded bits can change across iterations; the rest is
     direct and stable, so equality over them suffices (and keeps the
     analyzer's own R1 polymorphic-compare rule honest). *)
  let effects_equal (a : effects) b =
    Bool.equal a.s_mutates b.s_mutates
    && Bool.equal a.s_nondet b.s_nondet
    && Bool.equal a.s_cover b.s_cover
    && Bool.equal a.s_conn b.s_conn
    && Bool.equal a.s_locks b.s_locks
    && Bool.equal a.s_heavy b.s_heavy
    && Bool.equal a.s_spawns b.s_spawns
    && Bool.equal a.s_may_raise b.s_may_raise
  in
  let eff =
    Fixpoint.solve ~nodes ~succs ~equal:effects_equal ~init:base
      ~transfer:(fun ~get n ->
        List.fold_left
          (fun e c ->
            if String.equal c n then e
            else
              let ce = get c in
              {
                e with
                s_mutates = e.s_mutates || ce.s_mutates;
                s_nondet = e.s_nondet || ce.s_nondet;
                s_cover = e.s_cover || ce.s_cover;
                s_conn = e.s_conn || ce.s_conn;
                s_locks = e.s_locks || ce.s_locks;
                s_heavy = e.s_heavy || ce.s_heavy;
                s_spawns = e.s_spawns || ce.s_spawns;
                s_may_raise = e.s_may_raise || ce.s_may_raise;
              })
          (get n) (succs n))
  in
  (* --- locked-only least fixpoint over open referrers ----------------- *)
  let referenced, open_callers =
    referrer_index graph ~wrapper:(wrapper_of graph)
  in
  let locked_only =
    Fixpoint.solve ~nodes ~succs:open_callers ~equal:Bool.equal
      ~init:(fun _ -> false)
      ~transfer:(fun ~get n ->
        referenced n && List.for_all get (open_callers n))
  in
  let st_effects = Hashtbl.create 256 in
  List.iter
    (fun n ->
      let e = eff n in
      (* The higher-order hop: a guard inside a function flowing into
         one of [n]'s parameters executes as part of [n]'s body, so it
         counts toward [n]'s sanitization — this is what discharges a
         [~decider]-guarded automaton.  One hop only, and only for the
         sanitizer families: or-folding instantiations transitively
         would reintroduce the combinator-mixing leak. *)
      let hop sel = sel e || List.exists (fun i -> sel (eff i)) e.s_inst in
      Hashtbl.replace st_effects n
        {
          e with
          s_cover = hop (fun x -> x.s_cover);
          s_conn = hop (fun x -> x.s_conn);
          s_locked_only = locked_only n;
        })
    nodes;
  let st_protected = protected_of graph ~locked_only in
  { st_graph = graph; st_effects; st_protected }

(* ------------------------------------------------------------------ *)
(* Fingerprints and rendering                                          *)
(* ------------------------------------------------------------------ *)

let flags e =
  List.filter_map
    (fun (on, name) -> if on then Some name else None)
    [
      (e.s_mutates, "mutates");
      (e.s_nondet, "nondet");
      (e.s_source, "source");
      (e.s_sinks > 0, "sink");
      (e.s_cover, "cover-sanitized");
      (e.s_conn, "connectivity-sanitized");
      (e.s_locks, "locks");
      (e.s_heavy, "heavy");
      (e.s_spawns, "spawns");
      (e.s_may_raise, "may-raise");
      (e.s_locked_only, "locked-only");
    ]

let fingerprint e =
  let payload =
    String.concat "|"
      ([ e.s_fn; Finding.normalize_path e.s_file; string_of_int e.s_sinks ]
      @ flags e @ e.s_inst)
  in
  String.sub (Digest.to_hex (Digest.string payload)) 0 12

let store_fingerprint st =
  let payload =
    all st |> List.map fingerprint |> String.concat "\n"
  in
  String.sub (Digest.to_hex (Digest.string payload)) 0 12

let selected ?only st =
  let keep e =
    match only with
    | None -> true
    | Some m ->
      String.starts_with ~prefix:(m ^ ".") e.s_fn
      || String.equal (Names.module_of_source e.s_file) m
  in
  List.filter keep (all st)

let render_text ?only st =
  let buf = Buffer.create 2048 in
  let es = selected ?only st in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%s (%s:%d) [%s]\n" e.s_fn
           (Finding.normalize_path e.s_file)
           e.s_line (fingerprint e));
      let fl = flags e in
      if fl <> [] then
        Buffer.add_string buf
          (Printf.sprintf "  effects: %s\n" (String.concat ", " fl));
      if e.s_inst <> [] then
        Buffer.add_string buf
          (Printf.sprintf "  inst: %s\n" (String.concat ", " e.s_inst)))
    es;
  Buffer.add_string buf
    (Printf.sprintf "%d function summarie(s), store fingerprint %s\n"
       (List.length es) (store_fingerprint st));
  Buffer.contents buf

let render_json ?only st =
  let es = selected ?only st in
  let one e =
    let b g = if g then "true" else "false" in
    Printf.sprintf
      "{\"fn\": \"%s\", \"file\": \"%s\", \"line\": %d, \
       \"fingerprint\": \"%s\", \"mutates\": %s, \"nondet\": %s, \
       \"source\": %s, \"sinks\": %d, \"cover_sanitized\": %s, \
       \"connectivity_sanitized\": %s, \"locks\": %s, \"heavy\": %s, \
       \"spawns\": %s, \"may_raise\": %s, \"locked_only\": %s, \
       \"inst\": [%s]}"
      (Finding.json_escape e.s_fn)
      (Finding.json_escape (Finding.normalize_path e.s_file))
      e.s_line (fingerprint e) (b e.s_mutates) (b e.s_nondet) (b e.s_source)
      e.s_sinks (b e.s_cover) (b e.s_conn) (b e.s_locks) (b e.s_heavy)
      (b e.s_spawns) (b e.s_may_raise) (b e.s_locked_only)
      (String.concat ", "
         (List.map (fun i -> "\"" ^ Finding.json_escape i ^ "\"") e.s_inst))
  in
  Printf.sprintf
    "{\n\
     \  \"schema\": \"rmt-lint-summaries/1\",\n\
     \  \"store_fingerprint\": \"%s\",\n\
     \  \"functions\": [\n    %s\n  ]\n\
     }\n"
    (store_fingerprint st)
    (String.concat ",\n    " (List.map one es))
