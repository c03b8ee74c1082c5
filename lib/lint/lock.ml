(* R4 + R8 — lock discipline over the summary store.

   R4 (domain-unsafe state) moved here from the intraprocedural walk:
   a top-level mutable binding is flagged unless the summary store can
   prove it lock-protected — referenced at least once, with every open
   (outside-critical-section) reference coming from a locked-only
   function.  There is no by-file carve-out: a module that guards its
   state with a lock wrapper ([let locked f = Mutex.protect lock f])
   passes on its own merits, and a regression there (say, a new entry
   point that forgets [locked]) is a finding, not a silent hole.

   R8 verifies the obligations of that lock-wrapper pattern (the R8
   fixtures in test/lint mirror it):

   - {e compute-outside-lock}: a closure passed to a lock-acquiring
     wrapper must not transitively re-acquire a mutex, and must not
     reach allocation-heavy compute (Structure.restrict/join, the
     solvability core, the fan-out engines) — the whole point of the
     probe/compute/store split is that enumeration happens unlocked;
   - {e raw-lock hygiene}: between a bare [Mutex.lock] and its
     [Mutex.unlock], walked in source order, no may-raise call may
     appear unless the region uses [Fun.protect] — an exception there
     would leave the lock held and deadlock the next acquirer. *)

let rule = "R8"

let last_component name =
  match List.rev (String.split_on_char '.' name) with
  | last :: _ -> last
  | [] -> name

let r4_message kind =
  if String.equal kind "record with mutable fields" then
    "top-level record with mutable fields is shared across Domain \
     fan-out; allocate per call or use Atomic"
  else
    Printf.sprintf
      "top-level mutable state (%s) is shared across Domain fan-out; \
       allocate per call or use Atomic"
      kind

let analyze_r4 store =
  let graph = Summary.graph store in
  List.filter_map
    (fun (f : Callgraph.fn_summary) ->
      match f.mutable_global with
      | Some kind when not (Summary.lock_protected store f.fn_name) ->
        Some
          (Finding.make ~rule:"R4" ~file:f.fn_file ~line:f.fn_line
             ~context:(last_component f.fn_name)
             (r4_message kind))
      | _ -> None)
    (Callgraph.functions graph)

(* One critical-section obligation: the refs of a closure passed to a
   lock-acquiring wrapper. *)
let check_crit store (h : Callgraph.ho_arg) add =
  let graph = Summary.graph store in
  let effects_of name =
    match Callgraph.resolve graph name with
    | None -> None
    | Some q -> Summary.find store q
  in
  List.iter
    (fun r ->
      let reacquires =
        Summary.is_raw_lock_name r
        || Names.qualified_matches [ "Mutex.protect" ] r
        ||
        match effects_of r with
        | Some e -> e.Summary.s_locks
        | None -> false
      in
      if reacquires then
        add ~line:h.ho_line
          (Printf.sprintf
             "critical section passed to %s re-acquires a mutex via %s; \
              the global lock is not re-entrant and this deadlocks"
             h.ho_callee r);
      let heavy =
        Summary.is_heavy_name r
        ||
        match effects_of r with
        | Some e -> e.Summary.s_heavy || e.Summary.s_spawns
        | None -> false
      in
      if heavy then
        add ~line:h.ho_line
          (Printf.sprintf
             "critical section passed to %s reaches allocation-heavy \
              compute via %s; probe under the lock, compute outside, \
              re-lock to store"
             h.ho_callee r))
    h.ho_refs

(* Source-order walk over a function's references: between a raw
   Mutex.lock and its unlock, a may-raise reference with no Fun.protect
   in the region leaves the lock held on the exception path. *)
let check_raw_lock store (f : Callgraph.fn_summary) add =
  let graph = Summary.graph store in
  let may_raise name =
    Summary.is_may_raise_name name
    ||
    match Callgraph.resolve graph name with
    | None -> false
    | Some q ->
      (match Summary.find store q with
       | Some e -> e.Summary.s_may_raise
       | None -> false)
  in
  let held = ref false in
  let risk = ref None in
  let protected_region = ref false in
  let flush () =
    (match (!risk, !protected_region) with
     | Some (r : Callgraph.ref_site), false ->
       add ~line:r.ref_line
         (Printf.sprintf
            "mutex held across may-raise call %s with no Fun.protect; \
             an exception here leaves the lock held and deadlocks the \
             next acquirer"
            r.ref_name)
     | _ -> ());
    risk := None;
    protected_region := false
  in
  List.iter
    (fun (r : Callgraph.ref_site) ->
      if Summary.is_raw_lock_name r.ref_name then begin
        if !held then flush ();
        held := true
      end
      else if Summary.is_unlock_name r.ref_name then begin
        if !held then flush ();
        held := false
      end
      else if !held then begin
        if Summary.is_protect_name r.ref_name then protected_region := true
        else if !risk = None && may_raise r.ref_name then risk := Some r
      end)
    f.refs;
  if !held then flush ()

let analyze store =
  let graph = Summary.graph store in
  let findings = ref [] in
  List.iter
    (fun (f : Callgraph.fn_summary) ->
      let add ~line message =
        findings :=
          Finding.make ~rule ~file:f.fn_file ~line
            ~context:(last_component f.fn_name)
            message
          :: !findings
      in
      List.iter
        (fun (h : Callgraph.ho_arg) ->
          if Summary.lock_wrapper store h.ho_callee then
            check_crit store h add)
        f.ho_args;
      check_raw_lock store f add)
    (Callgraph.functions graph);
  analyze_r4 store @ !findings |> List.sort Finding.compare
