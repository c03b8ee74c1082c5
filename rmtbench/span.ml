(* In-memory spans around calls into the library's layers.

   A span is opened by [record] around one call, closes when the call
   returns (or raises), and charges its duration to its name: [total]
   is the wall time inside the span, [self] the part not covered by
   nested spans.  Spans nest on an explicit stack, so a parent's self
   time is exactly its duration minus its children's.

   Nothing is written while spans run: the raw records of the first
   [log_capacity] spans are kept in flat arrays and rendered as JSONL by
   [write_jsonl] once the run is over.  When [enabled] is false,
   [record] is a plain call. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let max_names = 32

let names = Array.make max_names ""

let num_names = ref 0

(* Register a span name once, at start-up; the returned id indexes the
   per-name accumulators. *)
let name s =
  let id = !num_names in
  if id >= max_names then invalid_arg "Span.name: too many names";
  names.(id) <- s;
  incr num_names;
  id

let enabled = ref false

let self_ns = Array.make max_names 0

let total_ns = Array.make max_names 0

let calls = Array.make max_names 0

(* open spans *)
let max_depth = 64

let depth = ref 0

let st_child = Array.make max_depth 0

let st_id = Array.make max_depth 0

let next_id = ref 0

(* the op id every span opened from now on belongs to *)
let op = ref 0

let set_op i = op := i

(* raw records: id, name, start, end, parent (-1: none), op *)
let log_capacity = 50_000

let log = Array.make (6 * log_capacity) 0

let logged = ref 0

let origin = ref (now ())

let reset () =
  Array.fill self_ns 0 max_names 0;
  Array.fill total_ns 0 max_names 0;
  Array.fill calls 0 max_names 0;
  depth := 0;
  next_id := 0;
  logged := 0;
  origin := now ()

let close d name t0 =
  let t1 = now () in
  let dur = t1 - t0 in
  depth := d;
  self_ns.(name) <- self_ns.(name) + dur - st_child.(d);
  total_ns.(name) <- total_ns.(name) + dur;
  calls.(name) <- calls.(name) + 1;
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
  if !logged < log_capacity then begin
    let b = 6 * !logged in
    log.(b) <- st_id.(d);
    log.(b + 1) <- name;
    log.(b + 2) <- t0;
    log.(b + 3) <- t1;
    log.(b + 4) <- (if d > 0 then st_id.(d - 1) else -1);
    log.(b + 5) <- !op;
    incr logged
  end

let record name f =
  if not !enabled then f ()
  else begin
    let d = !depth in
    if d >= max_depth then failwith "Span.record: nesting too deep";
    st_child.(d) <- 0;
    st_id.(d) <- !next_id;
    incr next_id;
    depth := d + 1;
    let t0 = now () in
    match f () with
    | v ->
      close d name t0;
      v
    | exception e ->
      close d name t0;
      raise e
  end

let write_jsonl path =
  let oc = open_out path in
  for k = 0 to !logged - 1 do
    let b = 6 * k in
    let parent = log.(b + 4) in
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%s,\"op\":%d}\n"
      log.(b)
      names.(log.(b + 1))
      (log.(b + 2) - !origin)
      (log.(b + 3) - !origin)
      (if parent < 0 then "null" else string_of_int parent)
      log.(b + 5)
  done;
  close_out oc
