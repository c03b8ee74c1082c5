module Structure : sig
  val restrict : 'a -> 'b -> int list
end

val lock : Mutex.t
val tab : (int, int list) Hashtbl.t
val locked : (unit -> 'a) -> 'a
val memo_restrict : 'a -> 'b -> int -> int list
val careful : int -> unit
