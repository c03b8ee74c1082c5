(** Aligned ASCII tables for the benchmark harness.

    The experiment runners print their results as fixed-width tables so that
    [bench_output.txt] is directly readable and diffable. *)

type t

val create : string list -> t
(** [create headers] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** Appends a row.  Rows shorter than the header are right-padded with
    empty cells; longer rows are truncated. *)

val print : ?title:string -> t -> unit
(** Renders to stdout. *)

val to_string : ?title:string -> t -> string

(** {1 Cell formatting helpers} *)

val cell_int : int -> string

val cell_pct : float -> string
(** [cell_pct 0.25] is ["25.0%"]. *)

val cell_bool : bool -> string
(** ["yes"] / ["no"]. *)

val cell_ratio : int -> int -> string
(** [cell_ratio num den] is ["num/den"]. *)
