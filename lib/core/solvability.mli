(** Instance-level feasibility predicates.

    The deciders answer "is RMT solvable here?" from the cut
    characterizations.  Whether a protocol actually withstands every
    admissible corruption is the empirical side, answered by
    [Rmt_attack.Campaign.battery]; experiments E3/E4 check that the two
    notions coincide. *)

open Rmt_knowledge

type feasibility =
  | Solvable
  | Unsolvable
  | Unknown  (** a search budget was exhausted *)

val pp_feasibility : Format.formatter -> feasibility -> unit

val feasibility_equal : feasibility -> feasibility -> bool
(** Constructor equality; use instead of polymorphic [=] (rmt-lint R1). *)

val is_solvable : feasibility -> bool
(** [is_solvable f] is [feasibility_equal f Solvable]. *)

val of_verdict : Cut.verdict -> feasibility
(** Cut existence → feasibility: a found cut is [Unsolvable], a complete
    cut-free search is [Solvable], an exhausted budget is [Unknown].
    Shared by the one-shot deciders below and the streaming
    {!Service}. *)

val partial_knowledge : Instance.t -> feasibility
(** RMT-cut characterization (Theorems 3 + 5), with
    {!Cut.find_rmt_cut}'s default budget. *)

val ad_hoc : Instance.t -> feasibility
(** RMT 𝒵-pp cut characterization (Theorems 7 + 8), with
    {!Cut.find_rmt_zpp_cut}'s default budget. *)
