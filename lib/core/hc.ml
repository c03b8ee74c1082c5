open Rmt_base
open Rmt_adversary

(* Weak hash-cons tables + bounded strong memo caches, one global mutex.

   There is no rmt-lint carve-out for this file: the R4/R8 lock pass
   (lib/lint/lock.ml) proves the discipline instead.  Every top-level
   table is only reached from [locked] critical sections, no critical
   section re-acquires or runs enumerative compute (the memo wrappers
   probe under the lock, compute outside, re-lock to store), and a
   regression — say a new entry point that forgets [locked] — is a
   finding, not a silently widened exemption.  test/core/test_hc.ml
   exercises the same discipline under a real fan-out. *)

type 'a cell = { value : 'a; mutable id : int }

(* [id] is not part of the content: cells hash and compare by [value]
   only, so a fresh probe cell finds the canonical one. *)
module Set_cell = struct
  type t = Nodeset.t cell

  let equal a b = Nodeset.equal a.value b.value
  let hash a = Nodeset.hash a.value
end

module Structure_cell = struct
  type t = Structure.t cell

  let equal a b = Structure.equal a.value b.value

  let hash a =
    List.fold_left
      (fun acc m -> (acc * 1000003) lxor Nodeset.hash m)
      (Nodeset.hash (Structure.ground a.value))
      (Structure.maximal_sets a.value)
end

module Set_tab = Weak.Make (Set_cell)
module Structure_tab = Weak.Make (Structure_cell)

let lock = Mutex.create ()
let locked f = Mutex.protect lock f

let next_id = ref 0
let set_tab = Set_tab.create 1024
let structure_tab = Structure_tab.create 256

(* Memo caches: strong, keyed by id pairs, capped.  Ids are never
   reused, so an entry whose key ids belong to collected cells is dead
   weight but never a wrong answer; the cap flushes such residue. *)
let cache_cap = 8192
let restrict_cache : (int * int, Structure.t) Hashtbl.t = Hashtbl.create 256

let set_hits = ref 0
let set_misses = ref 0
let structure_hits = ref 0
let structure_misses = ref 0
let restrict_hits = ref 0
let restrict_misses = ref 0

let intern tab probe hits misses =
  match Set_tab.find_opt tab probe with
  | Some canon ->
    incr hits;
    canon
  | None ->
    probe.id <- !next_id;
    incr next_id;
    Set_tab.add tab probe;
    incr misses;
    probe

let intern_structure probe =
  match Structure_tab.find_opt structure_tab probe with
  | Some canon ->
    incr structure_hits;
    canon
  | None ->
    probe.id <- !next_id;
    incr next_id;
    Structure_tab.add structure_tab probe;
    incr structure_misses;
    probe

let set_cell s = intern set_tab { value = s; id = -1 } set_hits set_misses
let structure_cell z = intern_structure { value = z; id = -1 }

let set s = locked (fun () -> (set_cell s).value)
let set_id s = locked (fun () -> (set_cell s).id)
let structure z = locked (fun () -> (structure_cell z).value)
let structure_id z = locked (fun () -> (structure_cell z).id)

let equal_set a b = locked (fun () -> set_cell a == set_cell b)
let equal_structure a b = locked (fun () -> structure_cell a == structure_cell b)

let bounded_add cache key v =
  if Hashtbl.length cache >= cache_cap then Hashtbl.reset cache;
  Hashtbl.replace cache key v

let memo_restrict a z =
  let compute_under_lock =
    locked (fun () ->
        let key = ((set_cell a).id, (structure_cell z).id) in
        match Hashtbl.find_opt restrict_cache key with
        | Some r ->
          incr restrict_hits;
          Either.Left r
        | None ->
          incr restrict_misses;
          Either.Right key)
  in
  match compute_under_lock with
  | Either.Left r -> r
  | Either.Right key ->
    (* compute outside the lock: restriction can be expensive and other
       domains' lookups must not wait on it.  A racing domain may compute
       the same value; last write wins with an equal result. *)
    let r = Structure.restrict a z in
    locked (fun () ->
        let r = (structure_cell r).value in
        bounded_add restrict_cache key r;
        r)

type stats = {
  live_sets : int;
  live_structures : int;
  set_hits : int;
  set_misses : int;
  structure_hits : int;
  structure_misses : int;
  restrict_hits : int;
  restrict_misses : int;
  join_hits : int;
  join_misses : int;
}

let stats () =
  locked (fun () ->
      {
        live_sets = Set_tab.count set_tab;
        live_structures = Structure_tab.count structure_tab;
        set_hits = !set_hits;
        set_misses = !set_misses;
        structure_hits = !structure_hits;
        structure_misses = !structure_misses;
        restrict_hits = !restrict_hits;
        restrict_misses = !restrict_misses;
        join_hits = 0;
        join_misses = 0;
      })

let clear () =
  locked (fun () ->
      Set_tab.clear set_tab;
      Structure_tab.clear structure_tab;
      Hashtbl.reset restrict_cache;
      set_hits := 0;
      set_misses := 0;
      structure_hits := 0;
      structure_misses := 0;
      restrict_hits := 0;
      restrict_misses := 0)
