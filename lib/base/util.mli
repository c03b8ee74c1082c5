(** Small general-purpose helpers shared across the repository. *)

val list_product : 'a list -> 'b list -> ('a * 'b) list
(** Cartesian product, left-major order. *)

val list_take : int -> 'a list -> 'a list
(** First [n] elements (all of them when the list is shorter). *)

val sum_by : ('a -> int) -> 'a list -> int

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)

val median : float list -> float
(** Median; 0. on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] for [p] in [0,1], nearest-rank; 0. on empty. *)

val group_by :
  cmp:('k -> 'k -> int) -> ('a -> 'k) -> 'a list -> ('k * 'a list) list
(** Groups adjacent-equal keys after a stable sort by key under [cmp];
    each key appears once, groups in ascending key order. *)

val tokens : string -> string list
(** The words of one line of a text format: everything from the first
    ['#'] on is a comment and dropped, the rest is split on spaces, each
    word trimmed of other surrounding whitespace (tabs, a trailing
    ['\r']), and empty words dropped.  The instance, schedule, replay
    and attack-program codecs and the service's command parser all read
    their lines through it. *)
