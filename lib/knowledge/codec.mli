(** Textual serialization of RMT instances.

    A small line-oriented format, meant to be written by hand or by the
    CLI and checked into experiment repositories:

    {v
    # anything after '#' is a comment
    nodes 0 1 2 3
    edges 0-1 1-2 2-3
    dealer 0
    receiver 3
    view ad-hoc            # or: full | radius 2
    ground 1 2 3           # optional; defaults to all nodes minus dealer
    set 1 2                # one maximal corruption set per line
    set 3
    v}

    The node set line is optional when every node appears in an edge.
    Views are serialized by constructor ([View.kind]); instances built
    from [View.of_assignment] cannot be serialized (the assignment is an
    arbitrary function) and [to_string] rejects them. *)



val max_node_id : int
(** The largest node id a text input may name: 65535.  Ids index bitsets
    and adjacency arrays, so one line naming a huge id would otherwise
    allocate gigabytes before any other check ran. *)

val parse_node_id : string -> (int, string) result
(** A node id in [\[0, max_node_id\]]; [Error] names the token otherwise.
    The one node-id parser of the text inputs: [.rmt] files here and the
    solvability service's command lines ([Rmt_core.Service]). *)

val to_string : Instance.t -> (string, string) result
(** [Error _] when the view is custom. *)

val of_string : string -> (Instance.t, string) result
(** Parse; error messages carry the offending line. *)

val to_file : string -> Instance.t -> (unit, string) result

val of_file : string -> (Instance.t, string) result
