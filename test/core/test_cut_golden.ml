(* Pins the cut deciders' observable output.

   A golden of, per instance, [Cut.find_rmt_cut]'s found flag, witness
   (b_side, c1, c2), completeness flag and visited count, and
   [Cut.find_rmt_zpp_cut]'s found flag and visited count.  The instances
   are 400 seeded [Workload.tightness_suite] instances (200 at n = 10,
   200 at n = 14; the suite cycles through all four adversary/knowledge
   classes) plus every checked-in instances/*.rmt.  The deciders may get
   faster; none of these bytes may move.  Regenerate, only when a
   behaviour change is intended, from the repository root with
     dune build test/core/test_cut_golden.exe
     (cd _build/default/test/core && ./test_cut_golden.exe --print) \
       > test/core/fixtures/cut_verdicts.golden *)

open Rmt_base
open Rmt_knowledge
open Rmt_core

let instances_dir = "../../instances"
let golden_path = "fixtures/cut_verdicts.golden"
let suite_count = 200

let verdict_line name (inst : Instance.t) =
  let rmt = Cut.find_rmt_cut inst and zpp = Cut.find_rmt_zpp_cut inst in
  let witness =
    match rmt.cut_found with
    | None -> "none"
    | Some w ->
      Printf.sprintf "B=%s C1=%s C2=%s" (Nodeset.to_string w.b_side)
        (Nodeset.to_string w.c1) (Nodeset.to_string w.c2)
  in
  Printf.sprintf "%s rmt %b %s %b %d zpp %b %d" name
    (Option.is_some rmt.cut_found)
    witness rmt.complete rmt.visited
    (Option.is_some zpp.cut_found)
    zpp.visited

let checked_in () =
  Sys.readdir instances_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rmt")
  |> List.sort String.compare
  |> List.map (fun f ->
         match Codec.of_file (Filename.concat instances_dir f) with
         | Ok inst -> (Filename.chop_suffix f ".rmt", inst)
         | Error e -> failwith (Printf.sprintf "cannot load %s: %s" f e))

let golden_table () =
  let buf = Buffer.create 65536 in
  let add name inst = Buffer.add_string buf (verdict_line name inst ^ "\n") in
  List.iter
    (fun n ->
      List.iteri
        (fun i (l : Rmt_workloads.Workload.labelled) ->
          add (Printf.sprintf "n%d/%d/%s" n i l.label) l.instance)
        (Rmt_workloads.Workload.tightness_suite (Prng.create (1700 + n))
           ~count:suite_count ~n))
    [ 10; 14 ];
  List.iter (fun (name, inst) -> add name inst) (checked_in ());
  Buffer.contents buf

let test_golden () =
  let expected = In_channel.with_open_bin golden_path In_channel.input_all in
  Alcotest.(check string) "cut verdict golden" expected (golden_table ())

let () =
  if Array.length Sys.argv > 1 && String.equal Sys.argv.(1) "--print" then
    print_string (golden_table ())
  else
    Alcotest.run "cut-golden"
      [ ("golden", [ Alcotest.test_case "deciders" `Quick test_golden ]) ]
