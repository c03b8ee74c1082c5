(* Lock-discipline violations — R8.  The local stubs stand in for the
   real modules (rmt-lint matches names by qualified suffix):

   - [double_probe] passes [locked] a critical section that re-acquires
     the non-re-entrant global lock — deadlock;
   - [heavy_under_lock] runs enumerative compute (Structure.restrict)
     inside the critical section instead of probing under the lock and
     computing outside;
   - [risky] holds a raw [Mutex.lock] across a may-raise call with no
     [Fun.protect] — the exception path leaves the lock held. *)

module Structure = struct
  let restrict _t _m = []
end

let lock = Mutex.create ()
let tab : (int, int) Hashtbl.t = Hashtbl.create 16
let locked f = Mutex.protect lock f

let double_probe k =
  locked (fun () -> locked (fun () -> Hashtbl.find_opt tab k))

let heavy_under_lock t m = locked (fun () -> Structure.restrict t m)

let risky k =
  Mutex.lock lock;
  if k < 0 then failwith "negative key";
  Mutex.unlock lock
