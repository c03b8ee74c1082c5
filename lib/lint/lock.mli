(** R4 + R8 — lock discipline as verified obligations over the summary
    store.

    R4 flags top-level mutable bindings the store cannot prove
    lock-protected (see {!Summary.lock_protected}); there is no by-file
    carve-out, a lock-wrapped table passes by analysis.  R8 checks
    the compute-outside-lock pattern (no re-entrant acquisition, no
    allocation-heavy compute inside a critical section), raw-lock
    hygiene (no may-raise call between [Mutex.lock] and [Mutex.unlock]
    without [Fun.protect]). *)

val analyze : Summary.store -> Finding.t list
(** All R4 and R8 findings, sorted. *)
