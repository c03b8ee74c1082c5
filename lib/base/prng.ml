(* splitmix64: tiny, fast, and high-quality enough for workload generation.
   Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014.

   The 64-bit state lives unboxed in 8 bytes: a [mutable int64] field
   would box a fresh state on every draw. *)

type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (get t 0) golden in
  set t 0 s;
  mix s

let split t = of_state (mix (Int64.add (bits64 t) golden))

(* Rejection sampling over the top 62 bits to avoid modulo bias; a
   top-level loop, so a draw allocates no closure. *)
let rec draw t bound =
  let r = Int64.to_int (bits64 t) land max_int in
  let v = r mod bound in
  if r - v + (bound - 1) >= 0 then v else draw t bound

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  draw t bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let[@inline] unit_float t =
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int r /. 9007199254740992.0 (* 2^53 *)

let float t x = unit_float t *. x

(* [u *. 1.0 = u], so this is [float t 1.0 < p] without returning a
   boxed float *)
let chance t p = unit_float t < p

let pick t a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Prng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let subset t s p =
  Nodeset.filter (fun _ -> chance t p) s

let sample t s k =
  let elts = Nodeset.to_array s in
  shuffle t elts;
  let k = min k (Array.length elts) in
  Nodeset.of_array (Array.sub elts 0 k)
