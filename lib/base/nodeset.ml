(* Dense bitsets over non-negative ints.  Invariant: the word array never has
   trailing zero words, so structural equality of the arrays coincides with
   set equality and [compare] can be lexicographic from the top word. *)

let bits_per_word = Sys.int_size - 1 (* 62 on 64-bit: keep ints positive *)

type t = int array

let empty : t = [||]

let normalize (w : int array) : t =
  let n = ref (Array.length w) in
  while !n > 0 && w.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length w then w else Array.sub w 0 !n

let check_nonneg v =
  if v < 0 then invalid_arg "Nodeset: negative node id"

let word_of v = v / bits_per_word
let bit_of v = v mod bits_per_word

let mem v (s : t) =
  v >= 0
  && word_of v < Array.length s
  && s.(word_of v) land (1 lsl bit_of v) <> 0

(* [word0 s] is the low word of a set of at most one word; [of_word w] is
   the normalized set whose only word is [w].  Every set over ids below
   [bits_per_word] (all instances the experiments drive) takes these
   one-word paths, which allocate at most a two-word block on the minor
   heap and make no runtime call. *)
let word0 (s : t) = if Array.length s = 0 then 0 else Array.unsafe_get s 0

let of_word w : t = if w = 0 then [||] else [| w |]

let add v (s : t) =
  check_nonneg v;
  if mem v s then s
  else if v < bits_per_word && Array.length s <= 1 then
    [| word0 s lor (1 lsl v) |]
  else begin
    let w = word_of v in
    let len = max (Array.length s) (w + 1) in
    let out = Array.make len 0 in
    Array.blit s 0 out 0 (Array.length s);
    out.(w) <- out.(w) lor (1 lsl bit_of v);
    out
  end

let remove v (s : t) =
  if not (mem v s) then s
  else if Array.length s = 1 then of_word (s.(0) land lnot (1 lsl v))
  else begin
    let out = Array.copy s in
    out.(word_of v) <- out.(word_of v) land lnot (1 lsl bit_of v);
    normalize out
  end

let singleton v = add v empty

let of_list l = List.fold_left (fun s v -> add v s) empty l

let of_array a = Array.fold_left (fun s v -> add v s) empty a

let range lo hi =
  if lo >= hi then empty
  else begin
    check_nonneg lo;
    let out = Array.make (word_of (hi - 1) + 1) 0 in
    for v = lo to hi - 1 do
      out.(word_of v) <- out.(word_of v) lor (1 lsl bit_of v)
    done;
    out
  end

let is_empty (s : t) = Array.length s = 0

let popcount =
  (* 62-bit popcount via the classic SWAR reduction on 64-bit ints. *)
  let m1 = 0x5555555555555555 and m2 = 0x3333333333333333 in
  let m4 = 0x0F0F0F0F0F0F0F0F in
  fun x ->
    let x = x - ((x lsr 1) land m1) in
    let x = (x land m2) + ((x lsr 2) land m2) in
    let x = (x + (x lsr 4)) land m4 in
    (x * 0x0101010101010101) lsr 56

(* Index of the lowest set bit of a non-zero word: the bits below it. *)
let low_index w = popcount ((w land -w) - 1)

(* Index of the highest set bit of a non-zero word: smear it downwards,
   then count. *)
let high_index w =
  let w = w lor (w lsr 1) in
  let w = w lor (w lsr 2) in
  let w = w lor (w lsr 4) in
  let w = w lor (w lsr 8) in
  let w = w lor (w lsr 16) in
  let w = w lor (w lsr 32) in
  popcount w - 1

let size (s : t) =
  let n = ref 0 in
  for i = 0 to Array.length s - 1 do
    n := !n + popcount s.(i)
  done;
  !n

let signature (s : t) =
  let acc = ref 0 in
  for i = 0 to Array.length s - 1 do
    acc := !acc lor s.(i)
  done;
  !acc

let subset (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la > lb then
    (* words of [a] beyond [b] must be zero; normalization says they are not *)
    false
  else begin
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < la do
      if a.(!i) land lnot b.(!i) <> 0 then ok := false;
      incr i
    done;
    !ok
  end

let equal (a : t) (b : t) =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < Array.length a do
    if a.(!i) <> b.(!i) then ok := false;
    incr i
  done;
  !ok

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0
      else
        let c = Stdlib.compare a.(i) b.(i) in
        if c <> 0 then c else go (i - 1)
    in
    go (la - 1)
  end

let disjoint (a : t) (b : t) =
  let l = min (Array.length a) (Array.length b) in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < l do
    if a.(!i) land b.(!i) <> 0 then ok := false;
    incr i
  done;
  !ok

let union (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <= 1 && lb <= 1 then of_word (word0 a lor word0 b)
  else begin
    let l = max la lb in
    let out = Array.make l 0 in
    for i = 0 to l - 1 do
      let wa = if i < la then a.(i) else 0 in
      let wb = if i < lb then b.(i) else 0 in
      out.(i) <- wa lor wb
    done;
    out
  end

let inter (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <= 1 || lb <= 1 then of_word (word0 a land word0 b)
  else begin
    let l = min la lb in
    let out = Array.make l 0 in
    for i = 0 to l - 1 do
      out.(i) <- a.(i) land b.(i)
    done;
    normalize out
  end

let diff (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <= 1 then of_word (word0 a land lnot (word0 b))
  else begin
    let out = Array.make la 0 in
    for i = 0 to la - 1 do
      let wb = if i < lb then b.(i) else 0 in
      out.(i) <- a.(i) land lnot wb
    done;
    normalize out
  end

let iter f (s : t) =
  for wi = 0 to Array.length s - 1 do
    let base = wi * bits_per_word in
    let rest = ref s.(wi) in
    while !rest <> 0 do
      let w = !rest in
      f (base + low_index w);
      rest := w land (w - 1)
    done
  done

let fold f (s : t) init =
  let acc = ref init in
  iter (fun v -> acc := f v !acc) s;
  !acc

(* Whether some element [v], visited in ascending order, has
   [p v = decisive]; the scan stops at the first such element. *)
let find_decisive (decisive : bool) p (s : t) =
  let found = ref false in
  let wi = ref 0 in
  while (not !found) && !wi < Array.length s do
    let base = !wi * bits_per_word in
    let rest = ref s.(!wi) in
    while (not !found) && !rest <> 0 do
      let w = !rest in
      if p (base + low_index w) = decisive then found := true;
      rest := w land (w - 1)
    done;
    incr wi
  done;
  !found

let for_all p s = not (find_decisive false p s)

let exists p s = find_decisive true p s

let filter p (s : t) = fold (fun v acc -> if p v then add v acc else acc) s empty

let elements (s : t) = List.rev (fold (fun v acc -> v :: acc) s [])

let to_array (s : t) = Array.of_list (elements s)

let min_elt_opt (s : t) =
  (* low words can be zero; only the top one is known not to be *)
  let rec go wi =
    if wi >= Array.length s then None
    else if s.(wi) = 0 then go (wi + 1)
    else Some ((wi * bits_per_word) + low_index s.(wi))
  in
  go 0

let max_elt_opt (s : t) =
  let top = Array.length s - 1 in
  if top < 0 then None else Some ((top * bits_per_word) + high_index s.(top))

let choose_opt = min_elt_opt

let subsets_iter (s : t) f =
  let elts = to_array s in
  let n = Array.length elts in
  if n > 20 then invalid_arg "Nodeset.subsets_iter: universe too large";
  for mask = 0 to (1 lsl n) - 1 do
    let sub = ref empty in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then sub := add elts.(i) !sub
    done;
    f !sub
  done

let pp ppf (s : t) =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_int)
    (elements s)

let to_string s = Format.asprintf "%a" pp s

let hash (s : t) =
  let acc = ref 5381 in
  for i = 0 to Array.length s - 1 do
    acc := (!acc * 1000003) lxor s.(i)
  done;
  !acc
