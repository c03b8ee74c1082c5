(* R6 — Domain-race escape analysis over the call graph.

   Judged per fan-out call site (Parsweep.map / map_list /
   Timing.time_with_domains / Domain.spawn):

   1. the closure argument must not capture a mutable container
      allocated outside itself (domain-local allocations are invisible
      here by construction: their binders live inside the closure);
   2. nothing the closure calls — transitively, across modules — may
      touch top-level mutable state.  Top-level mutable bindings are
      graph nodes (Callgraph records them with [mutable_global]), so
      "touches" is plain reachability and the witnessing call chain is a
      BFS path.

   lib/workloads/parsweep.ml is the sanctioned engine: its result array
   is written at disjoint indices and read only after Domain.join, a
   protocol this flow-insensitive pass cannot see. *)

let exempt_file file =
  String.ends_with ~suffix:"lib/workloads/parsweep.ml" file
  || String.equal file "parsweep.ml"

(* Lock-protected mutable globals (Hc's interned tables and memo
   caches, proven by the summary store's locked-only analysis) are not
   race targets.  That was a hand-written file carve-out before the
   summary store existed; now it is an analysis result, and a
   regression — an Hc entry point that skips [locked] — resurfaces here
   as a finding. *)

let rule = "R6"

let analyze store =
  let graph = Summary.graph store in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  List.iter
    (fun (f : Callgraph.fn_summary) ->
      if not (exempt_file f.fn_file) then
        List.iter
          (fun (fo : Callgraph.fanout) ->
            (* captured mutable state *)
            List.iter
              (fun (var, kind) ->
                add
                  (Finding.make ~rule ~file:f.fn_file ~line:fo.fan_line
                     ~col:fo.fan_col ~context:fo.fan_context
                     (Printf.sprintf
                        "closure passed to %s captures mutable %s `%s' \
                         allocated outside it; every domain of the \
                         fan-out shares it unsynchronized — allocate it \
                         inside the closure or aggregate after the join"
                        fo.fan_callee kind var)))
              fo.captured;
            (* transitive access to top-level mutable state *)
            let roots =
              (match fo.arg_fn with
               | Some a -> [ a ]
               | None -> [])
              @ List.map
                  (fun (r : Callgraph.ref_site) -> r.ref_name)
                  fo.closure_refs
            in
            let roots =
              List.filter_map (Callgraph.resolve graph) roots
              |> List.sort_uniq String.compare
            in
            let accept name =
              match Callgraph.find graph name with
              | Some g ->
                g.mutable_global <> None
                && not (Summary.lock_protected store g.fn_name)
              | None -> false
            in
            let seen = Hashtbl.create 8 in
            List.iter
              (fun root ->
                match
                  Callgraph.shortest_path graph
                    ~admit:(fun _ -> true)
                    ~accept root
                with
                | None -> ()
                | Some path ->
                  let target = List.nth path (List.length path - 1) in
                  if not (Hashtbl.mem seen target) then begin
                    Hashtbl.replace seen target ();
                    let kind =
                      match Callgraph.find graph target with
                      | Some g ->
                        Option.value g.mutable_global ~default:"container"
                      | None -> "container"
                    in
                    let chain =
                      List.map
                        (fun name ->
                          match Callgraph.find graph name with
                          | Some g ->
                            {
                              Finding.hop_fn = name;
                              hop_file = g.fn_file;
                              hop_line = g.fn_line;
                            }
                          | None ->
                            {
                              Finding.hop_fn = name;
                              hop_file = "?";
                              hop_line = 0;
                            })
                        path
                    in
                    add
                      (Finding.make ~rule ~file:f.fn_file ~line:fo.fan_line
                         ~col:fo.fan_col ~context:fo.fan_context ~chain
                         (Printf.sprintf
                            "closure passed to %s transitively reaches \
                             top-level mutable state `%s' (%s), shared \
                             across every domain of the fan-out; thread \
                             it through arguments or use Atomic"
                            fo.fan_callee target kind))
                  end)
              roots)
          f.fanouts)
    (Callgraph.functions graph);
  List.sort Finding.compare !findings
