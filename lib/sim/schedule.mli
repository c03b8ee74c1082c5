(** Delivery schedules — the serializable record of a simulated run's
    scheduling choices.

    The simulator numbers every scheduled message with a global sequence
    number (the order {!Sim.run} passes sends to the delivery policy —
    deterministic in the run).  A schedule maps sequence numbers to the
    {e non-synchronous} decisions taken for them; every message without
    an entry gets {!sync_decision}.  This makes the synchronous schedule
    the empty one, and lets shrinking converge toward it entry by entry.

    On-disk format ([.sched], mirrors the line-oriented [.rmt] files):
    {v
    # rmt schedule
    sched-bound 3
    sched 12 delay 3
    sched 17 key 2
    sched 23 drop
    sched 30 delay 2 key 1 dup 1
    v} *)

type decision = Rmt_net.Transport.decision = {
  drop : bool;  (** suppress the message entirely *)
  delay : int;  (** rounds in flight; 1 is the synchronous next round *)
  key : int;
      (** per-inbox ordering key: inboxes sort by [(key, seq)], so 0
          everywhere is FIFO in send order *)
  dup : int option;
      (** also deliver a copy [e] rounds after the first delivery *)
}

val sync_decision : decision
(** {!Rmt_net.Transport.sync_decision}: what the synchronous engine
    does to every message. *)

val drop_decision : decision

val decision_is_sync : decision -> bool
val decision_equal : decision -> decision -> bool

type t

val max_bound : int
(** 64: the largest accepted bound.  Replay scales its round budget by
    the bound, so the cap keeps a [.sched] file from asking for
    unbounded work; it sits well above every bound the repository uses
    (at most 6). *)

val make : bound:int -> (int * decision) list -> t
(** Normalizes: canonicalizes dropped decisions, discards synchronous
    entries, sorts by sequence number.  Raises [Invalid_argument] on a
    negative seq/key, a delay or dup below 1 or above [bound], a bound
    outside [1..max_bound], or two entries for the same sequence
    number. *)

val sync : t
(** The empty schedule with bound 1: replaying it {e is} the
    synchronous engine, bit for bit. *)

val bound : t -> int
(** Maximum delay the recording policy could emit; replay scales the
    default round limit by it so delayed runs are not cut short. *)

val entries : t -> (int * decision) list
(** Non-synchronous entries, sorted by sequence number. *)

val decision_for : t -> int -> decision
(** Linear lookup with {!sync_decision} default; {!Policy.of_schedule}
    pre-hashes the entries instead when replaying. *)

val size : t -> int
(** The shrinking measure: summed over the entries, a drop counts 1 and
    any other decision its extra delay plus 1 each for a non-zero key
    and a duplicate.  0 iff synchronous, and strictly decreased by every
    {!Sim_shrink} move. *)

val equal : t -> t -> bool

val to_lines : t -> string list
val to_string : t -> string
val of_string : string -> (t, string) result
val to_file : string -> t -> (unit, string) result
val of_file : string -> (t, string) result

val pp : Format.formatter -> t -> unit
