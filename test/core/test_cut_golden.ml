(* Pins the cut deciders' observable output.

   A golden of, per instance, [Cut.find_rmt_cut]'s found flag, witness
   (b_side, c1, c2), completeness flag and visited count, and
   [Cut.find_rmt_zpp_cut]'s found flag and visited count.  The instances
   are 400 seeded [Workload.tightness_suite] instances (200 at n = 10,
   200 at n = 14; the suite cycles through all four adversary/knowledge
   classes) plus every checked-in instances/*.rmt.  The found,
   completeness and blocked fields are the paper's verdicts and may never
   move.  Witnesses and visited counts move only with a deliberate change
   to the search order or its prunes: the incorruptible-node prune of
   Cut.boundary_search re-pinned 7 witnesses in each file and cut visited
   from 24,006 to 7,504 here and from 23,418 to 7,365 in the broadcast
   golden.  Regenerate, only when a behaviour change is intended, from
   the repository root with
     dune build test/core/test_cut_golden.exe
     (cd _build/default/test/core && ./test_cut_golden.exe --print) \
       > test/core/fixtures/cut_verdicts.golden

   A second golden pins Reliable Broadcast's Definition 10 decider on the
   same 400 suite instances: [Broadcast.find_zpp_cut]'s witness
   (b_side, c1, c2), completeness flag and visited count, and
   [Broadcast.blocked_nodes].  Regenerate with [--print-broadcast] into
   test/core/fixtures/broadcast_verdicts.golden. *)

open Rmt_base
open Rmt_knowledge
open Rmt_core

let instances_dir = "../../instances"
let golden_path = "fixtures/cut_verdicts.golden"
let broadcast_golden_path = "fixtures/broadcast_verdicts.golden"
let suite_count = 200

let witness_string (v : Cut.verdict) =
  match v.cut_found with
  | None -> "none"
  | Some w ->
    Printf.sprintf "B=%s C1=%s C2=%s" (Nodeset.to_string w.b_side)
      (Nodeset.to_string w.c1) (Nodeset.to_string w.c2)

let verdict_line name (inst : Instance.t) =
  let rmt = Cut.find_rmt_cut inst and zpp = Cut.find_rmt_zpp_cut inst in
  Printf.sprintf "%s rmt %b %s %b %d zpp %b %d" name
    (Option.is_some rmt.cut_found)
    (witness_string rmt) rmt.complete rmt.visited
    (Option.is_some zpp.cut_found)
    zpp.visited

let broadcast_line name (inst : Instance.t) =
  let v = Broadcast.find_zpp_cut inst in
  Printf.sprintf "%s bc %s %b %d blocked=%s" name (witness_string v)
    v.complete v.visited
    (Nodeset.to_string (Broadcast.blocked_nodes inst))

let checked_in () =
  Sys.readdir instances_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rmt")
  |> List.sort String.compare
  |> List.map (fun f ->
         match Codec.of_file (Filename.concat instances_dir f) with
         | Ok inst -> (Filename.chop_suffix f ".rmt", inst)
         | Error e -> failwith (Printf.sprintf "cannot load %s: %s" f e))

let suite () =
  List.concat_map
    (fun n ->
      List.mapi
        (fun i (l : Rmt_workloads.Workload.labelled) ->
          (Printf.sprintf "n%d/%d/%s" n i l.label, l.instance))
        (Rmt_workloads.Workload.tightness_suite (Prng.create (1700 + n))
           ~count:suite_count ~n))
    [ 10; 14 ]

let table line instances =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (name, inst) -> Buffer.add_string buf (line name inst ^ "\n"))
    instances;
  Buffer.contents buf

let golden_table () = table verdict_line (suite () @ checked_in ())
let broadcast_table () = table broadcast_line (suite ())

let check_golden msg path actual =
  let expected = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) msg expected (actual ())

let () =
  match Sys.argv with
  | [| _; "--print" |] -> print_string (golden_table ())
  | [| _; "--print-broadcast" |] -> print_string (broadcast_table ())
  | _ ->
    Alcotest.run "cut-golden"
      [
        ( "golden",
          [
            Alcotest.test_case "deciders" `Quick (fun () ->
                check_golden "cut verdict golden" golden_path golden_table);
            Alcotest.test_case "broadcast" `Quick (fun () ->
                check_golden "broadcast verdict golden" broadcast_golden_path
                  broadcast_table);
          ] );
      ]
