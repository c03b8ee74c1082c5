(* Send-bound shapes the protocol model must classify, pinned by
   test/lint/test_model_bounds.ml: recursion without sends stays free,
   any send on a call cycle makes the whole cycle (and its callers)
   unbounded, a shadowing binding (top-level or local) is a function of
   its own and the one later calls reach, a nested
   helper lends its bound to the step that calls it, and a closure
   counts only where it runs.  Every bound here is
   deliberate, so no finding fires. *)

type msg = Ping of int

type st = { mutable heard : int option }

type 'p send = { dst : int; payload : 'p }

type ('s, 'm) automaton = {
  init : int -> 's * 'm send list;
  step :
    int -> 's -> round:int -> inbox:(int * 'm) list -> 's * 'm send list;
  decision : 's -> int option;
}

(* Send-free recursion: bound 0, so not a send helper. *)
let rec count_down n = if n <= 0 then 0 else count_down (n - 1)

(* Self-recursive sender: unbounded. *)
let rec spam v n =
  if n = 0 then [] else { dst = v; payload = Ping n } :: spam v (n - 1)

(* Two-function cycle with one sender: both members unbounded. *)
let rec ping v n =
  if n = 0 then [] else { dst = v; payload = Ping n } :: pong v (n - 1)

and pong v n = if n = 0 then [] else ping v (n - 1)

(* A caller of that cycle: unbounded too. *)
let kick v = pong v (count_down 3)

(* A binding that shadows one of the same name is a function of its
   own: one send plus the silent first [quiet], not a self-call. *)
let quiet (_ : int) : msg send list = []
let quiet v = { dst = v; payload = Ping v } :: quiet v

(* A call resolves to the last binding of the name defined before it:
   [g] calls the second [f] (one send), not the silent first one. *)
let f (_ : int) : msg send list = []
let f v = { dst = v; payload = Ping v } :: f v
let g v = f v

(* The same inside a function: the last [h] is the one with a send,
   and its own [h v] calls the silent first one. *)
let nested v =
  let h (_ : int) : msg send list = [] in
  let h v = { dst = v; payload = Ping v } :: h v in
  h v

(* Closures built but not run here.  [wrap] only stores its argument
   inside a closure it does not apply, so neither [wrap], nor [table]
   which hands it a sending closure, nor [row] which stores one, sends
   anything.  [apply] runs its argument, so [runs] is unbounded. *)
type 'a row = { run : int -> 'a }

let wrap decide = { run = (fun v -> decide v) }
let table () = wrap (fun v -> spam v 3)
let row () = { run = (fun v -> spam v 2) }

(* A stored partial application is a closure too: [partial] stores
   [spam 3] without running it, so it sends nothing, while [eager]
   stores the list a full application of [spam] returns. *)
let partial () = { run = spam 3 }
let eager v = (spam v 1, 0)
let apply f = f 1
let runs () = apply (fun v -> spam v 1)

let automaton () =
  let announce v =
    [ { dst = v; payload = Ping v }; { dst = v; payload = Ping 0 } ]
  in
  let init _v = ({ heard = None }, []) in
  let step v st ~round:_ ~inbox =
    List.iter
      (fun (_src, m) ->
        match m with
        | Ping x -> if st.heard = None then st.heard <- Some x)
      inbox;
    (st, announce v)
  in
  let decision st = st.heard in
  { init; step; decision }
