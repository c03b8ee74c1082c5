(** Attack programs — the serializable, shrinkable representation of a
    Byzantine strategy.

    A program assigns every corrupted node a {e base} behavior (what it
    does with the honest protocol it is replacing) and a list of
    {e injections} (forged traffic sprayed on top).  The vocabulary is the
    full strategy space the paper credits the adversary with: blocking,
    crashing, dropping, altering relayed values, forging propagation
    trails, lying about topology and local knowledge, and inventing
    fictitious nodes.  Programs are pure data — compiling one into an
    executable {!Rmt_net.Engine.strategy} is {!Strategy_gen}'s job — so
    they can be generated at random from a seed, minimized by delta
    debugging ({!Shrink}), and serialized into replay files ({!Replay}). *)

open Rmt_base

type base =
  | Honest  (** run the honest automaton faithfully *)
  | Silent  (** never send anything *)
  | Crash_after of int  (** honest through round [k], silent afterwards *)
  | Drop of float  (** honest, dropping each send with probability [p] *)

type inject =
  | Flip_value of int
      (** rewrite every relayed protocol value to the given fake *)
  | Forge_trail of int
      (** inject the fake value on a forged straight-from-the-dealer trail *)
  | Lie_topology
      (** advertise a forged own-report: a direct dealer edge plus a
          maximally permissive local structure *)
  | Phantom of int
      (** invent a fictitious node wired to the dealer; inject its report
          and the fake value routed through it *)
  | Forge_edges of int
      (** claim invented dealer/neighborhood edges and inject values whose
          trails run over them *)
  | Spam of { spam_seed : int; rounds : int }
      (** structurally random garbage for the first [rounds] rounds *)

type node_program = {
  node : int;
  base : base;
  injects : inject list;
}

type t = {
  seed : int;  (** drives every probabilistic choice during execution *)
  nodes : node_program list;  (** one entry per corrupted node, sorted *)
}

val make : seed:int -> node_program list -> t
(** Sorts the entries by node and drops duplicates (first wins). *)

val uniform : seed:int -> Nodeset.t -> base -> inject list -> t
(** Every node of the set runs the same base and injections. *)

val corrupted : t -> Nodeset.t

val size : t -> int
(** Shrinking measure: corrupted nodes + injections + non-trivial bases.
    Strictly decreases along every {!Shrink} step. *)

(** {1 Serialization}

    One line per corrupted node:
    [attack-node <id> <base> [<inject> ...]] with
    [<base> ::= honest | silent | crash:<k> | drop:<p>] and
    [<inject> ::= flip:<x> | forge-trail:<x> | lie-topology | phantom:<x>
    | forge-edges:<x> | spam:<seed>:<rounds>], plus a leading
    [attack-seed <n>] line.  The format is line-oriented so {!Replay} can
    interleave it with the {!Rmt_knowledge.Codec} instance text. *)

val to_lines : t -> string list

val of_lines : string list -> (t, string) result
(** Inverse of {!to_lines}; unknown keywords are an error. *)

val is_attack_line : string -> bool
(** Does the line belong to the attack-program vocabulary?  (Used by
    {!Replay} to split a reproducer file from the instance text.) *)

val pp : Format.formatter -> t -> unit

val base_equal : base -> base -> bool

val equal : t -> t -> bool
(** Structural equality, field by field; no polymorphic compare
    (rmt-lint R1) so it stays exact under [Drop] float payloads. *)
