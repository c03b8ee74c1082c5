(* The compliant lock discipline — the Hc probe/compute/store split, in
   miniature:

   - [memo_restrict] probes the memo table under the lock, computes
     outside it, and re-locks only to store — no re-acquisition, no
     heavy compute in any critical section;
   - [careful] wraps the raw-lock region's may-raise call in
     [Fun.protect], so the exception path still releases. *)

module Structure = struct
  let restrict _t _m = []
end

let lock = Mutex.create ()
let tab : (int, int list) Hashtbl.t = Hashtbl.create 16
let locked f = Mutex.protect lock f

let memo_restrict t m k =
  match locked (fun () -> Hashtbl.find_opt tab k) with
  | Some v -> v
  | None ->
    let v = Structure.restrict t m in
    locked (fun () -> Hashtbl.replace tab k v);
    v

let careful k =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () -> if k < 0 then failwith "negative key")
