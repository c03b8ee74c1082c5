(* Machine-speed calibration.

   A shared host's speed drifts by tens of percent over seconds (other
   tenants, frequency scaling), far more than the changes a benchmark has
   to resolve.  A fixed kernel is timed between windows of ops; scaling
   each window's op times by the kernel's speed against [nominal_ns]
   turns them into times at one reference speed.

   The kernel is a hand-written insertion sort and hash over a small int
   array.  It calls no library code, the Stdlib's included, and allocates
   nothing, so the workload's heap cannot slow it down.  rmtbench/dune
   gives it the benchmark's own compiler flags, without :standard, so
   flags set for the repository do not reach it.  A change to the
   repository's code or build flags therefore cannot move the kernel and
   moves the calibrated numbers in full.  A change of compiler moves the
   kernel as well: calibrated numbers compare builds made with one
   compiler version. *)

let size = 256

let template = Array.init size (fun i -> i * 7919 land 4095)

let scratch = Array.make size 0

let kernel () =
  for i = 0 to size - 1 do
    scratch.(i) <- template.(i)
  done;
  for i = 1 to size - 1 do
    let x = scratch.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && scratch.(!j) > x do
      scratch.(!j + 1) <- scratch.(!j);
      decr j
    done;
    scratch.(!j + 1) <- x
  done;
  let h = ref 0 in
  for i = 0 to size - 1 do
    h := ((!h * 31) + scratch.(i)) land 0xffffff
  done;
  ignore (Sys.opaque_identity !h)

(* the kernel's median time on the host the bounds were validated on *)
let nominal_ns = 30_650.

let reps = 5

let times = Array.make reps 0

(* median kernel time over [reps] runs *)
let measure () =
  for r = 0 to reps - 1 do
    let t0 = Span.now () in
    kernel ();
    times.(r) <- Span.now () - t0
  done;
  (* insertion sort: [reps] is tiny *)
  for i = 1 to reps - 1 do
    let x = times.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && times.(!j) > x do
      times.(!j + 1) <- times.(!j);
      decr j
    done;
    times.(!j + 1) <- x
  done;
  float_of_int times.(reps / 2)

(* factor turning times measured now into reference-speed times *)
let factor ~before ~after = nominal_ns /. ((before +. after) /. 2.)
