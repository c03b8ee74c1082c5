(** Compiling and sampling attack programs.

    {!compile} turns a {!Program.t} into an executable strategy: each
    corrupted node runs its base behavior over the honest automaton and
    adds what its injections mean in the protocol's {!vocabulary}.
    Compilation is deterministic: all randomness (dropping, spam) flows
    from PRNGs derived from the program's seed and the acting node's id,
    so replaying the same program on the same instance reproduces the
    identical run bit-for-bit.

    Compiled strategies inherit the single-run discipline of
    {!Rmt_net.Byzantine.mimic_honest}: compile a fresh strategy per
    {!Rmt_net.Engine.run}.

    [random] samples a seeded attack program whose corrupted set is an
    admissible corruption set of the instance (a subset of a maximal set
    avoiding dealer and receiver), so safety claims (Theorem 4) apply to
    every generated program. *)

open Rmt_base
open Rmt_knowledge
open Rmt_net
open Rmt_core

type 'm vocabulary
(** What the injections of {!Program.inject} mean against one protocol
    on one instance.  {!Program.Flip_value} rewrites every message the
    node sends; the other forgeries add their sends once, in round 1;
    {!Program.Spam} adds garbage in each of its first [rounds] rounds,
    drawn from a PRNG seeded by (spam seed, node, round). *)

val compile :
  Program.t -> ('s, 'm) Engine.automaton -> 'm vocabulary -> 'm Engine.strategy
(** [compile p automaton v]: [p]'s corrupted nodes run their bases over
    [automaton], the honest nodes' own, and their injections in [v]. *)

val pka : Instance.t -> Rmt_pka.msg vocabulary
(** Full vocabulary: every injection has its protocol-specific meaning
    (type-1 value forgery over forged trails, type-2 report forgery,
    fictitious nodes). *)

val ppa : Instance.t -> Rmt_protocols.Ppa.msg vocabulary
(** PKA's trail injections with PPA's bare-int payloads.  PPA carries
    no reports: {!Program.Lie_topology} compiles to nothing, and
    {!Program.Phantom} and {!Program.Forge_edges} to their value trails
    over invented nodes/edges alone. *)

val ints : Instance.t -> int vocabulary
(** Bare-value protocols (Z-CPA, the strawman): trail/report injections
    degrade to pushing the fake value. *)

val cert_pka : Instance.t -> Rmt_protocols.Certified.pka_msg vocabulary
(** {!pka} lifted through the certified wrapper: payload forgeries ride
    inside [Load], and every forging round additionally floods forged
    [Echo] votes for the whole node set (a corrupted node may always
    forge echoes — the certificate targets the message adversary), so
    out-of-envelope schedules can carry an attack past the quorum
    gate. *)

val cert_ppa : Instance.t -> Rmt_protocols.Certified.ppa_msg vocabulary
(** {!ppa} lifted the same way. *)

(** {1 One protocol each}

    {!compile} over the protocol's honest automaton and its vocabulary. *)

val compile_pka :
  Program.t -> Instance.t -> x_dealer:int -> Rmt_pka.msg Engine.strategy

val compile_ppa :
  Program.t -> Instance.t -> x_dealer:int -> Rmt_protocols.Ppa.msg Engine.strategy

val compile_zcpa :
  Program.t -> Instance.t -> x_dealer:int -> int Engine.strategy
(** Against Z-CPA with the direct membership oracle. *)

val compile_strawman :
  Program.t -> Instance.t -> x_dealer:int -> int Engine.strategy
(** Against {!Rmt_protocols.Naive.first_delivery} — the deliberately
    order-sensitive receiver the simulation campaign uses as its
    always-violable control. *)

val compile_cert_pka :
  Program.t ->
  Instance.t ->
  x_dealer:int ->
  Rmt_protocols.Certified.pka_msg Engine.strategy

val compile_cert_ppa :
  Program.t ->
  Instance.t ->
  x_dealer:int ->
  Rmt_protocols.Certified.ppa_msg Engine.strategy

(** {1 The fixed menus}

    The E2 safety battery ({!Campaign.battery}) as labelled programs.
    Every corrupted node runs the same entry.  The random entries spam
    for [|V|] rounds of the given graph, and every program carries
    {!menu_seed}, so the menus are deterministic. *)

val menu_seed : int

val pka_menu :
  Rmt_graph.Graph.t -> x_fake:int -> Nodeset.t -> (string * Program.t) list
(** Against the trail-carrying protocols: [silent] (block), [mimic]
    (honest baseline), [value-flip] ({!Program.Flip_value}),
    [trail-forge], [topology-liar], [fictitious-node], [edge-forger]
    (one injection each, on top of honest relaying) and [fuzz]
    ({!Program.Spam} on top of honest relaying). *)

val value_menu :
  Rmt_graph.Graph.t -> x_fake:int -> Nodeset.t -> (string * Program.t) list
(** Against the bare-value protocols: [silent], [value-flip] (push the
    fake value once, relay nothing) and [value-spam] (relay nothing;
    push values drawn uniformly from [\[0, 100)], which may include the
    dealer's value, so this entry can help delivery). *)

val random :
  Prng.t -> Instance.t -> x_dealer:int -> x_fake:int -> Program.t
(** One random attack program.  The corrupted set is drawn from the
    instance's maximal admissible sets (minus the receiver); bases and
    injections are sampled per node; fake values are drawn from
    [{x_fake, x_fake+1, x_dealer}] so value collisions are probed too.
    Returns a program with an empty node list when no admissible set
    avoids the receiver. *)
