type msg = Ping of int

type st = { mutable heard : int option }

type 'p send = { dst : int; payload : 'p }

type ('s, 'm) automaton = {
  init : int -> 's * 'm send list;
  step :
    int -> 's -> round:int -> inbox:(int * 'm) list -> 's * 'm send list;
  decision : 's -> int option;
}

val count_down : int -> int
val spam : int -> int -> msg send list
val ping : int -> int -> msg send list
val pong : int -> int -> msg send list
val kick : int -> msg send list
val quiet : int -> msg send list
val f : int -> msg send list
val g : int -> msg send list
val nested : int -> msg send list
type 'a row = { run : int -> 'a }

val wrap : (int -> 'a) -> 'a row
val table : unit -> msg send list row
val row : unit -> msg send list row
val partial : unit -> msg send list row
val eager : int -> msg send list * int
val apply : (int -> 'a) -> 'a
val runs : unit -> msg send list
val automaton : unit -> (st, msg) automaton
