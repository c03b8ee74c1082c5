open Typedtree

type meta = {
  id : string;
  name : string;
  summary : string;
  example : string;
  details : string;
}

let all =
  [
    {
      id = "R1";
      name = "poly-compare";
      summary =
        "polymorphic compare/=/<>/min/max/Hashtbl.hash at a non-base type";
      example =
        "bad: `if s1 = s2' on Structure.t — fixed: `Structure.equal s1 s2'";
      details =
        "Polymorphic structural comparison is instantiated at a record,\n\
         abstract or type-variable type.  The repository defines dedicated\n\
         comparators (Nodeset.compare, Structure.equal, Graph.equal, ...)\n\
         whose orderings the rest of the machinery treats as canonical;\n\
         Stdlib.compare on the underlying representation can disagree with\n\
         them (and crashes on functional components), so a polymorphic\n\
         instantiation silently forks the notion of equality the replay\n\
         and sweep layers rely on.  Fix: compare explicit fields with\n\
         Int.compare / String.compare / Nodeset.compare, or pass a ~cmp\n\
         argument.  Comparisons against the constant constructors [] and\n\
         None only inspect the tag and are exempt.";
    };
    {
      id = "R2";
      name = "iteration-order-leak";
      summary = "Hashtbl.fold builds a list that escapes unsorted";
      example =
        "bad: `Hashtbl.fold (fun k _ acc -> k :: acc) t []' returned as-is \
         — fixed: pipe it through `List.sort Int.compare'";
      details =
        "A Hashtbl.fold application produces a list without a dominating\n\
         List.sort / List.stable_sort / List.sort_uniq / Nodeset.of_list\n\
         normalization.  Hash-bucket order depends on the table's seed\n\
         and insertion history: under OCAMLRUNPARAM=R (or a different\n\
         OCaml release) the list order changes, so any simulator\n\
         transcript, decision tie-break or serialized artifact derived\n\
         from it stops being reproducible, which breaks seeded attack\n\
         replay (DESIGN.md par.5) and the Parsweep determinism contract.\n\
         Fix: sort by an explicit key right at the fold, or accumulate\n\
         into a Nodeset / sorted structure instead of a list.";
    };
    {
      id = "R3";
      name = "nondeterminism-source";
      summary =
        "Stdlib.Random / Sys.time / Unix.gettimeofday outside prng.ml, \
         workloads/timing.ml and bench/";
      example =
        "bad: `Random.int n' in a protocol — fixed: `Prng.int rng n' with \
         a threaded seed";
      details =
        "Every random draw in the repository must flow through the seeded\n\
         splitmix64 generator in lib/base/prng.ml so that experiments and\n\
         attack campaigns replay bit-for-bit from their recorded seed.\n\
         Stdlib.Random has ambient global state, and wall-clock reads\n\
         (Sys.time, Unix.gettimeofday, Unix.time) leak scheduling noise\n\
         into values.  Only lib/base/prng.ml (the sanctioned generator),\n\
         lib/workloads/timing.ml (the bench-only timing helpers) and\n\
         bench/ (which measures wall-clock on purpose) are exempt.\n\
         Fix: thread a Prng.t, or move timing into the bench layer.";
    };
    {
      id = "R4";
      name = "domain-unsafe-state";
      summary = "top-level mutable state shared across Domain fan-out";
      example =
        "bad: `let cache = Hashtbl.create 64' at module level — fixed: \
         allocate per call, or guard every access with a locked wrapper";
      details =
        "A module-level let binds a mutable container (ref, Hashtbl.t,\n\
         Buffer.t, Queue.t, Stack.t, bytes, array, or a record literal\n\
         with mutable fields).  Parsweep.map and the Campaign runner fan\n\
         work out to OCaml 5 Domains; any function they call shares\n\
         module-level state across domains without synchronization, which\n\
         is a data race and makes sweep results depend on scheduling.\n\
         The check runs over the summary store: a binding is exempt only\n\
         when the locked-only analysis proves every open reference to it\n\
         sits behind a lock-acquiring wrapper (let locked f =\n\
         Mutex.protect lock f) — there is no by-file carve-out.  Fix:\n\
         allocate the state inside the function, thread it through\n\
         arguments, use Atomic.t / Domain.DLS for genuinely global\n\
         counters, or route every access through a locked wrapper.";
    };
    {
      id = "R5";
      name = "interface-hygiene";
      summary = "missing .mli or use of Obj.magic";
      example =
        "bad: lib/foo.ml with no lib/foo.mli — fixed: publish the \
         interface and document its determinism contract";
      details =
        "Every module under lib/ must publish an interface: the .mli is\n\
         where determinism contracts (iteration order, identity\n\
         guarantees, single-use strategies) are documented, and an\n\
         unconstrained module leaks representation details that the\n\
         packed-structure and replay layers must be free to change.\n\
         Obj.magic (and Obj.repr/Obj.obj) defeats the type system and\n\
         with it every guarantee the other rules check.  Fix: add the\n\
         .mli; delete the Obj use.";
    };
    {
      id = "R6";
      name = "domain-race";
      summary =
        "mutable state reachable from a closure fanned out across Domains";
      example =
        "bad: `let hits = ref 0 in Parsweep.map (fun i -> incr hits; ...)' \
         — fixed: return counts and sum after the join";
      details =
        "A closure passed to Parsweep.map / Parsweep.map_list /\n\
         Domain.spawn captures a mutable value (ref, Hashtbl, Buffer,\n\
         Queue, Stack, array, bytes, or a record with mutable fields)\n\
         allocated outside the closure, or transitively calls — through\n\
         the cross-module call graph — a function that touches top-level\n\
         mutable state.  Every domain of the fan-out shares that state\n\
         without synchronization: a data race under OCaml 5's memory\n\
         model, and sweep results start depending on scheduling.\n\
         Domain-local state (allocated inside the closure) is exempt, as\n\
         are Atomic.t cells and the sanctioned fan-out engine\n\
         lib/workloads/parsweep.ml itself (its result array is written\n\
         at disjoint indices and read only after the join).  Fix:\n\
         allocate inside the closure, pre-split per instance before the\n\
         sweep, or aggregate sequentially after the parallel map.";
    };
    {
      id = "R7";
      name = "theorem4-taint";
      summary =
        "adversary-controlled data reaches a decision sink unverified";
      example =
        "bad: `st.decided <- Some v' straight from an inbox payload — \
         fixed: guard with a cut/cover check AND a connectivity check";
      details =
        "Theorem 4 is a safety obligation: the receiver must never decide\n\
         a wrong value, however the adversary lies.  Statically that\n\
         means every interprocedural path from a taint source (messages\n\
         delivered through an Engine step's ~inbox, Flood.msg payloads,\n\
         Attack/Program payloads, Discovery reports) to a decision sink\n\
         (an assignment to a `decided' field, Campaign verdict\n\
         construction) must pass a sanitizer of BOTH families:\n\
         - cut/cover verification: Cut.find_rmt_cut / find_rmt_zpp_cut /\n\
           is_rmt_cut, Solvability.is_solvable / partial_knowledge /\n\
           ad_hoc / feasibility_equal, Structure.mem / maximal_sets,\n\
           Subset_enum.connected_supersets;\n\
         - positive-connectivity verification: Connectivity.connected /\n\
           connected_avoiding / is_cut, Paths.shortest_path,\n\
           Flood.trail_ok.  Paths.find_simple_path deliberately does\n\
           NOT count: the adversary can always supply a claimed graph\n\
           containing some path, so its success verifies nothing.\n\
         The PR 2 fuzzing campaign caught exactly the second family\n\
         missing: a full-looking message set whose claimed graph had no\n\
         D-R path at all (vacuous fullness), letting a spammed value\n\
         through the cover check.  The finding prints the witnessing\n\
         source->sink call chain.  The pass is higher-order aware: a\n\
         guard reaching the sink through a function-valued argument (a\n\
         ~decider parameter) is resolved through the summary store's\n\
         instantiation sets, so only genuinely unguarded chains remain.\n\
         Fix: guard the decision with the missing verification, or pin\n\
         with a justification naming the guard the analysis cannot see.";
    };
    {
      id = "R8";
      name = "lock-discipline";
      summary =
        "critical-section obligations: re-entry, heavy compute under \
         lock, may-raise without Fun.protect";
      example =
        "bad: `locked (fun () -> Structure.join a b)' — fixed: probe \
         under the lock, compute outside, re-lock to store";
      details =
        "The repository runs one deliberate lock protocol, and R8\n\
         verifies its obligations instead of trusting carve-outs.\n\
         (1) Compute-outside-lock: a closure passed to a\n\
         lock-acquiring wrapper (locked, Mutex.protect) must not\n\
         transitively re-acquire a mutex (the global lock is not\n\
         re-entrant) and must not reach allocation-heavy compute\n\
         (Structure.restrict/join, the Solvability core, Cut search,\n\
         Subset_enum, the Parsweep fan-out) — probe under the lock,\n\
         compute outside, re-lock to store.  (2) Raw-lock hygiene: in\n\
         source order between Mutex.lock and Mutex.unlock, a call that\n\
         may raise (failwith, invalid_arg, raise, or any function whose\n\
         summary says so) with no Fun.protect in the region leaves the\n\
         lock held on the exception path.  Fix: restructure to\n\
         probe/compute/store, or wrap the region in Fun.protect.";
    };
    {
      id = "R9";
      name = "automaton-discipline";
      summary =
        "protocol automaton breaks the round-machine contract: decision \
         not write-once, inbox head-only, or unhandled message shape";
      example =
        "bad: `match inbox with (_, x) :: _ -> decide x' (Naive) — fixed: \
         fold over the whole inbox before deciding";
      details =
        "Theorem 4's safety argument treats every ('s,'m)\n\
         Transport.automaton as a well-behaved round machine, and R9\n\
         checks the contract on the model extracted from its typedtree:\n\
         - decision write-once/monotone: no step-reachable path assigns\n\
           a field the `decision' component reads without first reading\n\
           it (an unguarded write can map Some v to a different Some),\n\
           and no path assigns it a literal None (a decision reset);\n\
         - handler totality: every message constructor an honest\n\
           init/step can send is matched by some step-reachable case —\n\
           an unmatched constructor is a delivery an honest node drops\n\
           on the floor;\n\
         - whole-inbox consumption: a step that matches only the head\n\
           of its inbox (the Naive.first_delivery strawman) makes the\n\
           decision depend on delivery order within a round, which the\n\
           adversary schedules.\n\
         Replay acceptance is deliberately NOT a finding: whether step\n\
         reads ~round and whether ingestion is dedup-guarded\n\
         (Hashtbl.mem / List.mem before recording) are emitted as model\n\
         fields in `rmt_lint model' for audit — PKA's dedup guard is\n\
         correct despite being round-insensitive.  Fix: guard decision\n\
         writes on the current value, handle (or explicitly ignore with\n\
         a match case) every alphabet constructor, fold over the whole\n\
         inbox; or pin a deliberately undisciplined strawman in the\n\
         baseline.";
    };
    {
      id = "R10";
      name = "communication-budget";
      summary =
        "protocol automaton with no finite static per-round send bound";
      example =
        "bad: a step that re-broadcasts inside an unclassifiable loop — \
         fixed: iterate the inbox or Graph.neighbors so the bound is \
         |inbox|·deg(v)";
      details =
        "ROADMAP item 4 asks for first-class communication accounting:\n\
         every protocol's per-round message count should be bounded by\n\
         a symbolic function of the topology (constant, deg(v)-linear,\n\
         n-linear, |inbox|-linear, or |inbox|·deg(v)), concretizable\n\
         per instance and cross-checked against Transport.stats.  The\n\
         model extractor classifies each send-record construction by\n\
         its iteration context and composes callee bounds by context\n\
         multiplication (broadcast under an inbox iterator is\n\
         |inbox|·deg(v)); recursion that produces sends, while/for\n\
         loops around sends, and sends through unresolvable calls all\n\
         degrade to `unbounded', and R10 fires on any automaton whose\n\
         init or step bound is unbounded — such a protocol cannot\n\
         participate in the lint-model.json budget that\n\
         test/net/test_cost_bound.ml enforces dynamically.  Bounded\n\
         protocols are not findings; their vectors are emitted in the\n\
         model dump.  Fix: restructure the send loop around one of the\n\
         classifiable iterations, or split the helper so the\n\
         send-producing part is directly bounded.";
    };
  ]

let find id =
  let id = String.uppercase_ascii (String.trim id) in
  List.find_opt (fun m -> String.equal m.id id) all

(* ------------------------------------------------------------------ *)
(* Name and type helpers (shared ones live in Names)                   *)
(* ------------------------------------------------------------------ *)

let path_name = Names.path_name

(* [Hashtbl.fold] should also match [Stdlib.Hashtbl.fold] (stripped) and
   re-exports like [Rmt_base.Nodeset.of_list]; a bare suffix like
   [compare] must NOT match [Nodeset.compare], so exact names get no
   suffix matching. *)
let qualified_matches = Names.qualified_matches

let poly_ops =
  [ "compare"; "="; "<>"; "<"; ">"; "<="; ">="; "min"; "max" ]

let is_poly_op name =
  List.exists (String.equal name) poly_ops
  || qualified_matches [ "Hashtbl.hash"; "Hashtbl.seeded_hash" ] name

let is_sorter_name =
  qualified_matches
    [
      "List.sort";
      "List.stable_sort";
      "List.fast_sort";
      "List.sort_uniq";
      "Nodeset.of_list";
      "Nodeset.of_array";
    ]

let is_hashtbl_fold = qualified_matches [ "Hashtbl.fold" ]
let is_pipe name = String.equal name "|>"
let is_apply_op name = String.equal name "@@"

let is_forbidden_random name =
  String.equal name "Random"
  || String.starts_with ~prefix:"Random." name
  || qualified_matches [ "Sys.time"; "Unix.gettimeofday"; "Unix.time" ] name

let is_obj_magic = qualified_matches [ "Obj.magic"; "Obj.repr"; "Obj.obj" ]

let r3_exempt file =
  String.ends_with ~suffix:"lib/base/prng.ml" file
  || String.equal file "prng.ml"
  || String.ends_with ~suffix:"lib/workloads/timing.ml" file
  || String.equal file "timing.ml"
  || String.starts_with ~prefix:"bench/" file

let type_is_base = Names.type_is_base
let type_is_list = Names.type_is_list
let show_type = Names.show_type
let first_arg_type = Names.first_arg_type

(* ------------------------------------------------------------------ *)
(* The traversal                                                       *)
(* ------------------------------------------------------------------ *)

let check_structure ~file str =
  let findings = ref [] in
  let context = ref "module" in
  let sorted_depth = ref 0 in
  (* ident occurrences already judged from their application site *)
  let handled : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let key (loc : Location.t) =
    (loc.loc_start.Lexing.pos_lnum, loc.loc_start.Lexing.pos_cnum)
  in
  let add ~loc rule message =
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    let col =
      loc.Location.loc_start.Lexing.pos_cnum
      - loc.Location.loc_start.Lexing.pos_bol
    in
    findings :=
      Finding.make ~rule ~file ~line ~col ~context:!context message
      :: !findings
  in
  let ident_name e =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> Some (path_name p)
    | _ -> None
  in
  let rec expr_is_sorter e =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> is_sorter_name (path_name p)
    | Texp_apply (fn, _) -> expr_is_sorter fn
    | _ -> false
  in
  let is_const_ctor e =
    match e.exp_desc with
    | Texp_construct (_, cd, []) ->
      String.equal cd.Types.cstr_name "[]"
      || String.equal cd.Types.cstr_name "None"
    | _ -> false
  in
  let judge_poly ~loc name ty =
    match first_arg_type ty with
    | Some arg when not (type_is_base arg) ->
      add ~loc "R1"
        (Printf.sprintf
           "polymorphic %s instantiated at non-base type `%s'; use a \
            dedicated comparator"
           name (show_type arg))
    | Some _ | None -> ()
  in
  let on_ident e name =
    if is_poly_op name && not (Hashtbl.mem handled (key e.exp_loc)) then begin
      Hashtbl.replace handled (key e.exp_loc) ();
      judge_poly ~loc:e.exp_loc name e.exp_type
    end;
    if is_forbidden_random name && not (r3_exempt file) then
      add ~loc:e.exp_loc "R3"
        (Printf.sprintf
           "forbidden nondeterminism source %s; thread a seeded Prng.t \
            (lib/base/prng.ml) instead"
           name);
    if is_obj_magic name then
      add ~loc:e.exp_loc "R5" (Printf.sprintf "use of %s" name)
  in
  let default = Tast_iterator.default_iterator in
  let expr (sub : Tast_iterator.iterator) e =
    match e.exp_desc with
    | Texp_ident (p, _, _) ->
      on_ident e (path_name p);
      default.expr sub e
    | Texp_apply (fn, args) ->
      let actuals = List.filter_map (fun (_, a) -> a) args in
      let fname = ident_name fn in
      (match fname with
       | Some n when is_poly_op n ->
         Hashtbl.replace handled (key fn.exp_loc) ();
         if not (List.exists is_const_ctor actuals) then
           judge_poly ~loc:fn.exp_loc n fn.exp_type
       | _ -> ());
      (match fname with
       | Some n
         when is_hashtbl_fold n && type_is_list e.exp_type
              && !sorted_depth = 0 ->
         add ~loc:e.exp_loc "R2"
           "Hashtbl.fold builds a list in hash-bucket order with no \
            dominating sort/normalization; sort by an explicit key or \
            accumulate into a Nodeset"
       | _ -> ());
      let in_sorted f =
        incr sorted_depth;
        Fun.protect ~finally:(fun () -> decr sorted_depth) f
      in
      (match (fname, args) with
       | Some n, [ (_, Some arg); (_, Some f) ]
         when is_pipe n && expr_is_sorter f ->
         sub.expr sub f;
         in_sorted (fun () -> sub.expr sub arg)
       | Some n, [ (_, Some f); (_, Some arg) ]
         when is_apply_op n && expr_is_sorter f ->
         sub.expr sub f;
         in_sorted (fun () -> sub.expr sub arg)
       (* [x |> f] and [f @@ x] are rewritten by the typechecker into
          [Texp_apply (f, [x])] with a non-ident [f]; [expr_is_sorter]
          chases the application spine, so this one case covers direct,
          piped and partially-applied sorts alike. *)
       | _, _ when expr_is_sorter fn ->
         sub.expr sub fn;
         in_sorted (fun () -> List.iter (sub.expr sub) actuals)
       | _ ->
         sub.expr sub fn;
         List.iter (sub.expr sub) actuals)
    | _ -> default.expr sub e
  in
  let structure_item (sub : Tast_iterator.iterator) item =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          (match pat_bound_idents vb.vb_pat with
           | id :: _ -> context := Ident.name id
           | [] -> context := "pattern");
          (* R4 (top-level mutable state) is judged by the Lock pass
             over the summary store, where lock-protection can exempt
             it; this walk only tracks the context. *)
          sub.expr sub vb.vb_expr)
        vbs;
      context := "module"
    | _ -> default.structure_item sub item
  in
  let iterator = { default with expr; structure_item } in
  iterator.structure iterator str;
  List.sort Finding.compare !findings
