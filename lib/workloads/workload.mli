(** Instance generators and parameter sweeps for the experiment harness.

    Instances come labelled so experiment tables can report per-family
    rows.  All generators are deterministic given the PRNG. *)

open Rmt_base
open Rmt_graph
open Rmt_knowledge

type labelled = {
  label : string;
  instance : Instance.t;
}

(** {1 Topologies} *)

val named_topologies : unit -> (string * Graph.t * int * int) list
(** A fixed menu of small structured topologies
    [(name, graph, dealer, receiver)] used across experiments: grid,
    layered, ladder, cycle, wheel-ish communities, random-regular. *)

(** {1 Instance suites} *)

val tightness_suite : Prng.t -> count:int -> n:int -> labelled list
(** Random connected [G(n, p)] instances over four adversary/knowledge
    classes — the E3 workload, balanced between solvable and unsolvable
    instances.  Instance [i] takes both its adversary kind and its view
    from [i mod 4], so the two are paired, not crossed: threshold 1 with
    ad hoc views, threshold 2 with radius 1, 4 random sets of size
    [≤ n/4] with radius 2, and 8 random sets of size [≤ n/3] with full
    knowledge. *)

val ad_hoc_suite : Prng.t -> count:int -> n:int -> labelled list
(** Same but always in the ad hoc model — the E4 workload. *)

val scaling_family : width:int -> max_depth:int -> (int * Instance.t) list
(** Layered instances of growing depth (ad hoc, global threshold
    [t = width - 1 ... ] chosen solvable) keyed by node count — the E6
    workload. *)
