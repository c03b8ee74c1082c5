(* R7 — Theorem-4 taint analysis.

   Theorem 4 (RMT-PKA correctness) rests on the receiver deciding only
   after two independent verifications of adversary-controlled data:

   - a {e cover / solvability} check — the union of claimed labels must
     fail to cover the sender-receiver cut (Cut.find_rmt_cut and
     friends), or equivalently the instance must be certified solvable;
   - a {e positive connectivity} check — the claimed graph must actually
     connect the sender to the receiver around any candidate corruption
     set (Connectivity.connected_avoiding and friends).

   A protocol that skips either family can be driven to a wrong decision
   by a crafted claimed structure.  Notably, [Paths.find_simple_path] is
   {e not} a connectivity sanitizer: asking for {e some} path in a
   claimed graph is vacuously satisfiable by the adversary supplying
   that path, which is exactly the vacuous-fullness bug fixed in PR 2 —
   only checks that quantify over corruption sets or verify
   reachability of the authentic receiver qualify.

   Sources are functions that bind Engine-delivered messages (an
   [~inbox] parameter) or adversary-payload types (Attack programs,
   Flood messages, Engine strategies).  Sinks are receiver decisions
   ([_.decided <- ...]) and Campaign verdict construction.  A finding is
   a source-to-sink call chain none of whose nodes reaches a sanitizer
   of some family; the chain is printed in full.

   Two refinements keep the pass honest:

   - "reaches a sanitizer" is the summary store's verdict, which
     includes one higher-order hop: the guards of a function flowing
     into a [~decider]-style parameter count for the function that
     receives it, so a protocol guarded through its instantiations is
     discharged by analysis rather than by baseline justification;
   - the connectivity family only obligates chains whose {e source}
     binds a trail-carrying payload ([Flood.msg]).  A connectivity
     check verifies a {e claimed topology}; a message that carries no
     topology claim (a bare value in an inbox) gives the check nothing
     to verify, so demanding it would be vacuous.  The cover family is
     obligated by every adversarial source: solvability of the
     instance is a precondition of deciding at all. *)

let rule = "R7"

type family = Cover | Connectivity

(* The sanitizer name lists live in Summary (which folds them into every
   function's [s_cover]/[s_conn] bits during inference); this module
   owns the rationale and the reporting. *)
let family_name = function
  | Cover -> "cover/solvability"
  | Connectivity -> "positive-connectivity"

let family_hint = function
  | Cover ->
    "Cut.find_rmt_cut / Solvability.is_solvable / Structure.mem"
  | Connectivity ->
    "Connectivity.connected_avoiding / Flood.trail_ok \
     (Paths.find_simple_path does not count: a mere claimed path is \
     adversary-satisfiable)"

let is_source (f : Callgraph.fn_summary) =
  f.inbox_param || f.adversary_types <> []

(* Payload types that carry a topology claim (a relay trail); only
   sources binding one of these obligate the connectivity family. *)
let trail_source_types = [ "Flood.msg" ]

let source_for fam (f : Callgraph.fn_summary) =
  match fam with
  | Cover -> is_source f
  | Connectivity ->
    List.exists
      (Names.qualified_matches trail_source_types)
      f.adversary_types

(* [sanitized store fam] is the membership test for "references a [fam]
   sanitizer — directly, in some transitive callee, or in a function
   flowing into one of its higher-order parameters".  The last clause is
   the summary store's instantiation analysis: a [~decider] argument's
   guards count for the function that receives it. *)
let sanitized store fam =
  match fam with
  | Cover -> Summary.cover_sanitized store
  | Connectivity -> Summary.conn_sanitized store

(* Shortest source-to-[sink_fn] call chain every node of which fails
   [admit] ... i.e. backward BFS over callers through admitted nodes. *)
let source_chain graph ~fam ~admit start =
  let accept name =
    match Callgraph.find graph name with
    | Some f -> source_for fam f
    | None -> false
  in
  if not (admit start) then None
  else if accept start then Some [ start ]
  else begin
    let parent = Hashtbl.create 32 in
    Hashtbl.replace parent start start;
    let q = Queue.create () in
    Queue.add start q;
    let result = ref None in
    while !result = None && not (Queue.is_empty q) do
      let n = Queue.pop q in
      List.iter
        (fun c ->
          if !result = None && admit c && not (Hashtbl.mem parent c) then begin
            Hashtbl.replace parent c n;
            if accept c then result := Some c else Queue.add c q
          end)
        (Callgraph.callers graph n)
    done;
    match !result with
    | None -> None
    | Some s ->
      (* parent pointers lead from the source back down to [start], so
         walking them yields the chain already in call order. *)
      let rec walk n acc =
        let acc = n :: acc in
        if String.equal n start then List.rev acc
        else walk (Hashtbl.find parent n) acc
      in
      Some (walk s [])
  end

let hop_of graph name =
  match Callgraph.find graph name with
  | Some f ->
    { Finding.hop_fn = name; hop_file = f.fn_file; hop_line = f.fn_line }
  | None -> { Finding.hop_fn = name; hop_file = "?"; hop_line = 0 }

let sink_word (f : Callgraph.fn_summary) =
  f.sinks
  |> List.map (fun (s : Callgraph.sink_site) ->
         Callgraph.sink_describe s.sink_kind)
  |> List.sort_uniq String.compare
  |> String.concat ", "

let analyze store =
  let graph = Summary.graph store in
  let sanitized_of = [ (Cover, sanitized store Cover);
                       (Connectivity, sanitized store Connectivity) ] in
  let findings = ref [] in
  List.iter
    (fun (f : Callgraph.fn_summary) ->
      if f.sinks <> [] then begin
        (* One witness chain per unguarded family, then one finding per
           distinct chain listing every family it witnesses. *)
        let witnesses =
          List.filter_map
            (fun (fam, is_sanitized) ->
              if is_sanitized f.fn_name then None
              else
                match
                  source_chain graph ~fam
                    ~admit:(fun n -> not (is_sanitized n))
                    f.fn_name
                with
                | None -> None
                | Some chain -> Some (fam, chain))
            sanitized_of
        in
        let chains =
          List.map snd witnesses
          |> List.sort_uniq (List.compare String.compare)
        in
        List.iter
          (fun chain ->
            let fams =
              List.filter_map
                (fun (fam, c) ->
                  if List.compare String.compare c chain = 0 then Some fam
                  else None)
                witnesses
            in
            let missing =
              String.concat " and "
                (List.map
                   (fun fam ->
                     Printf.sprintf "%s check (%s)" (family_name fam)
                       (family_hint fam))
                   fams)
            in
            let anchor = List.hd f.sinks in
            let context =
              match List.rev (String.split_on_char '.' f.fn_name) with
              | last :: _ -> last
              | [] -> f.fn_name
            in
            findings :=
              Finding.make ~rule ~file:f.fn_file ~line:anchor.sink_line
                ~col:anchor.sink_col ~context
                ~chain:(List.map (hop_of graph) chain)
                (Printf.sprintf
                   "adversary-controlled data reaches decision sink \
                    (%s) with no %s anywhere on the call chain; \
                    Theorem 4 requires it before the receiver commits"
                   (sink_word f) missing)
              :: !findings)
          chains
      end)
    (Callgraph.functions graph);
  List.sort Finding.compare !findings

let audit store =
  let graph = Summary.graph store in
  let buf = Buffer.create 1024 in
  let sanitized_of = [ (Cover, sanitized store Cover);
                       (Connectivity, sanitized store Connectivity) ] in
  let sources =
    Callgraph.functions graph |> List.filter is_source
    |> List.map (fun (f : Callgraph.fn_summary) -> f.fn_name)
  in
  Buffer.add_string buf "Theorem-4 taint audit\n";
  Buffer.add_string buf
    (Printf.sprintf "  sources (%d): %s\n" (List.length sources)
       (String.concat ", " sources));
  let sinks =
    Callgraph.functions graph
    |> List.filter (fun (f : Callgraph.fn_summary) -> f.sinks <> [])
  in
  Buffer.add_string buf
    (Printf.sprintf "  decision sinks (%d):\n" (List.length sinks));
  List.iter
    (fun (f : Callgraph.fn_summary) ->
      Buffer.add_string buf
        (Printf.sprintf "    %s (%s:%d) — %s\n" f.fn_name f.fn_file
           f.fn_line (sink_word f));
      List.iter
        (fun (fam, is_sanitized) ->
          if is_sanitized f.fn_name then
            Buffer.add_string buf
              (Printf.sprintf "      %-21s guarded\n"
                 (family_name fam ^ ":"))
          else
            match
              source_chain graph ~fam
                ~admit:(fun n -> not (is_sanitized n))
                f.fn_name
            with
            | Some chain ->
              Buffer.add_string buf
                (Printf.sprintf "      %-21s UNGUARDED  %s\n"
                   (family_name fam ^ ":")
                   (String.concat " -> " chain))
            | None ->
              Buffer.add_string buf
                (Printf.sprintf
                   "      %-21s unguarded, but no %sadversarial source \
                    reaches it\n"
                   (family_name fam ^ ":")
                   (match fam with
                    | Cover -> ""
                    | Connectivity -> "trail-carrying ")))
        sanitized_of)
    sinks;
  Buffer.contents buf
