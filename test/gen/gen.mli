(** Shared qcheck generators for random RMT instances.

    Extracted from the per-suite copies in [test/core], [test/attack]
    and [test/lint] so every suite samples from the same, stable
    distributions.  Each generator documents which suite its recipe
    came from; keep the parameters in sync with the properties that
    were tuned against them. *)

open Rmt_knowledge

val arb_instance : Instance.t QCheck.arbitrary
(** Mixed structures (thresholds 1/2, random antichains) and views
    (ad hoc, radius 1, full) on connected G(n,0.45), n in 5..8.
    Recipe from [test/core/test_cut.ml]. *)

val arb_wide_instance : Instance.t QCheck.arbitrary
(** {!arb_instance} widened to two corners it never draws: radius-0
    views, which do not contain the star (so the cut search's
    incorruptible-node prune must stay off), and [𝒵 = {∅}] (threshold
    0, nothing corruptible, so every node is incorruptible).  Structures
    thresholds 0/1/2 and random antichains; views ad hoc, radius 0,
    radius 1, full. *)

val arb_ad_hoc_instance : Instance.t QCheck.arbitrary
(** Ad hoc knowledge only, same graph family as {!arb_instance}.
    Recipe from [test/core/test_cut.ml]. *)

val arb_small_instance : Instance.t QCheck.arbitrary
(** Small ad hoc instances on connected G(n,0.5), n in 5..7.
    Recipe from [test/core/test_protocols_core.ml]. *)

val arb_instance_and_seed : (Instance.t * int) QCheck.arbitrary
(** An {!arb_small_instance}-style instance paired with a campaign
    seed.  Recipe from [test/attack/test_attack.ml]. *)

val delta_stream :
  Rmt_base.Prng.t -> Instance.t -> int -> Rmt_core.Delta.t list
(** [delta_stream rng inst n]: up to [n] instance deltas, each valid when
    applied in sequence starting from [inst] (every prefix replays
    cleanly through [Delta.apply_all]).  Mixes edge add/remove, node
    join/crash and adversary-set add/retire; may stop short of [n] when
    no sampled delta applies. *)

val arb_instance_with_stream :
  (Instance.t * Rmt_core.Delta.t list) QCheck.arbitrary
(** An {!arb_instance}-style instance (ad hoc / radius-1 / full views)
    paired with a {!delta_stream} of length 3..8.  Recipe for
    [test/core/test_incremental.ml]. *)

val random_solvable_instance : int -> Instance.t option
(** A random connected instance (n in 8..11, radius-2 views) with a
    small adversary structure over the middle nodes, resampled up to 8
    times until PKA-solvable; [None] if none of the samples is.
    Recipe from [test/lint/test_runtime_determinism.ml]. *)
