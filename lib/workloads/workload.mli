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
(** Random connected [G(n, p)] instances with mixed adversary kinds and
    knowledge levels — the E3 workload, balanced between solvable and
    unsolvable instances. *)

val ad_hoc_suite : Prng.t -> count:int -> n:int -> labelled list
(** Same but always in the ad hoc model — the E4 workload. *)

val scaling_family : width:int -> max_depth:int -> (int * Instance.t) list
(** Layered instances of growing depth (ad hoc, global threshold
    [t = width - 1 ... ] chosen solvable) keyed by node count — the E6
    workload. *)
