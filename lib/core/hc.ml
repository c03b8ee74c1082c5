open Rmt_base
open Rmt_adversary

(* One bounded strong memo keyed by content, one global mutex.

   There is no rmt-lint carve-out for this file: the R4/R8 lock pass
   (lib/lint/lock.ml) proves the discipline instead.  Every top-level
   table is only reached from [locked] critical sections, no critical
   section re-acquires or runs enumerative compute (the memo wrapper
   probes under the lock, computes outside, re-locks to store), and a
   regression — say a new entry point that forgets [locked] — is a
   finding, not a silently widened exemption.  test/core/test_hc.ml
   exercises the same discipline under a real fan-out. *)

(* Keys compare by content; no polymorphic hash.  The hash reads the
   node set, the structure's ground set and its number of maximal sets
   only: equal keys agree on all three, and it allocates nothing.  A
   search passes one structure object throughout, so most structure
   comparisons are physical. *)
module Key = struct
  type t = Nodeset.t * Structure.t

  let equal (a1, z1) (a2, z2) =
    Nodeset.equal a1 a2 && (z1 == z2 || Structure.equal z1 z2)

  let hash (a, z) =
    (((Nodeset.hash a * 31) + Nodeset.hash (Structure.ground z)) * 31)
    + Structure.num_maximal z
end

module Tab = Hashtbl.Make (Key)

let lock = Mutex.create ()
let locked f = Mutex.protect lock f

(* Capped and flushed wholesale when full. *)
let cache_cap = 8192
let restrict_cache : Structure.t Tab.t = Tab.create 256

let restrict_hits = ref 0
let restrict_misses = ref 0

let memo_restrict a z =
  let key = (a, z) in
  let cached =
    locked (fun () ->
        match Tab.find_opt restrict_cache key with
        | Some r ->
          incr restrict_hits;
          Some r
        | None ->
          incr restrict_misses;
          None)
  in
  match cached with
  | Some r -> r
  | None ->
    (* compute outside the lock: restriction can be expensive and other
       domains' lookups must not wait on it.  A racing domain may compute
       the same value; last write wins with an equal result. *)
    let r = Structure.restrict a z in
    locked (fun () ->
        if Tab.length restrict_cache >= cache_cap then Tab.reset restrict_cache;
        Tab.replace restrict_cache key r);
    r

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
        live_sets = 0;
        live_structures = 0;
        set_hits = 0;
        set_misses = 0;
        structure_hits = 0;
        structure_misses = 0;
        restrict_hits = !restrict_hits;
        restrict_misses = !restrict_misses;
        join_hits = 0;
        join_misses = 0;
      })

let clear () =
  locked (fun () ->
      Tab.reset restrict_cache;
      restrict_hits := 0;
      restrict_misses := 0)
