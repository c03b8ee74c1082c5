(** Long-lived solvability service over a stream of instance deltas.

    Wraps one live {!Rmt_knowledge.Instance} and answers
    [is_solvable]/[cut] queries at memoized cost while {!Delta} updates
    stream in:

    - verdicts are generation-tagged: a query on an unchanged instance is
      a cache hit and costs nothing;
    - after updates, the next query runs {!Cut.update} against the last
      verdict — a surviving witness is revalidated in one check instead
      of a fresh enumeration;
    - a full re-search is a cold {!Cut.find_rmt_cut}: it tests [𝒵_B]
      membership against the instance's [𝒵] itself
      ({!Joint.mem_restricted}) and builds no restriction, so there is
      nothing to carry across generations.

    The service state is allocated per {!create} — nothing is shared
    between two services — and
    the reported {!stats} are deterministic: they count decisions taken,
    never GC-dependent cache occupancy, so replay output is stable enough
    to pin as a golden file (instances/*.golden, `rmt serve-solve`).

    The replay side speaks a one-command-per-line text protocol, shared
    by the CLI and the smoke tests:

    {v
    add-edge U V        remove-edge U V
    add-node V [N,..]   remove-node V
    add-set N[,N..]     remove-set N[,N..]
    solvable?           cut?           stats?
    v}

    Blank lines and [#] comments are skipped.  Every command produces
    exactly one output line. *)

open Rmt_knowledge

type t

val create : Instance.t -> t

val instance : t -> Instance.t
(** The current (post-deltas) instance. *)

val generation : t -> int
(** Number of successfully applied updates since {!create}. *)

val apply : t -> Delta.t -> (unit, string) result
(** Apply one delta.  On [Error] the instance is unchanged and the
    generation does not advance. *)

val cut : ?budget:int -> t -> Cut.verdict
(** RMT-cut verdict for the current instance: cached per generation,
    repaired via {!Cut.update} across generations. *)

val solvable : ?budget:int -> t -> Solvability.feasibility
(** {!Solvability.of_verdict} of {!cut}. *)

type stats = {
  updates : int;  (** deltas successfully applied *)
  rejected : int;  (** deltas refused by {!Delta.apply} *)
  queries : int;  (** [cut]/[solvable] calls *)
  cached : int;  (** queries answered from the generation cache *)
  witness_reuses : int;  (** queries settled by revalidating a witness *)
  searches : int;  (** queries that ran a full enumeration *)
}

val stats : t -> stats

(** {1 Replay protocol} *)

type command =
  | Update of Delta.t
  | Query_solvable
  | Query_cut
  | Query_stats

val parse_command : string -> (command option, string) result
(** [Ok None] for blank/comment lines.  Node ids go through
    {!Rmt_knowledge.Codec.parse_node_id}, so an id above
    {!Rmt_knowledge.Codec.max_node_id} is an [Error], as are negative
    ids, unknown commands and a known command with the wrong number of
    arguments. *)

val exec : ?budget:int -> t -> command -> string
(** Execute one command, returning its single deterministic output line
    (without newline). *)

val replay : ?budget:int -> t -> in_channel -> out_channel -> int
(** Drive the line protocol from a channel, echoing one output line per
    command ([error: ...] lines for malformed or rejected input).
    Returns the number of error lines emitted. *)
