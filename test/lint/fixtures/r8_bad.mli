module Structure : sig
  val restrict : 'a -> 'b -> 'c list
end

val lock : Mutex.t
val tab : (int, int) Hashtbl.t
val locked : (unit -> 'a) -> 'a
val double_probe : int -> int option
val heavy_under_lock : 'a -> 'b -> 'c list
val risky : int -> unit
