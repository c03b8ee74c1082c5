(* Pins the fixed E2 battery run by run: for every checked-in instance
   and every E2 instance, for RMT-PKA and Z-CPA, one line per entry of
   [Campaign.battery_programs] (the honest run, then every menu entry
   against every maximal corruption set avoiding the receiver):

     <instance> <protocol> <corrupted> <label> -> <verdict>
       rounds=<r> messages=<m> truncated=<b>

   Every run goes through [Campaign.execute] on the engine, the same
   path [Campaign.battery] takes.  Regenerate, only when a behaviour
   change is intended, from the repository root with
     dune build test/attack/test_battery_golden.exe
     (cd _build/default/test/attack && ./test_battery_golden.exe --print) \
       > test/attack/fixtures/battery_runs.golden *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_attack

let instances_dir = "../../instances"
let golden_path = "fixtures/battery_runs.golden"
let x_dealer = 5
let x_fake = 6

let checked_in () =
  Sys.readdir instances_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rmt")
  |> List.sort String.compare
  |> List.map (fun f ->
         match Codec.of_file (Filename.concat instances_dir f) with
         | Ok inst -> (Filename.chop_suffix f ".rmt", inst)
         | Error e -> failwith (Printf.sprintf "cannot load %s: %s" f e))

(* the E2 instance set of bench/main.ml *)
let e2_instances () =
  let rng = Prng.create 202 in
  List.concat_map
    (fun (name, g, dealer, receiver) ->
      let kinds =
        [
          ("thr-1", Builders.global_threshold g ~dealer 1);
          ( "rand",
            Builders.random_antichain rng g ~dealer ~sets:5
              ~max_size:(max 1 (Graph.num_nodes g / 3)) );
        ]
      in
      List.concat_map
        (fun (kname, structure) ->
          List.map
            (fun (vname, view) ->
              ( Printf.sprintf "%s/%s/%s" name kname vname,
                Instance.make ~graph:g ~structure ~view ~dealer ~receiver ))
            [ ("ad-hoc", View.ad_hoc g); ("r2", View.radius 2 g) ])
        kinds)
    [
      ("layered-3x2", Generators.layered ~width:3 ~depth:2, 0, 7);
      ("grid-3x3", Generators.grid 3 3, 0, 8);
      ("cycle-7", Generators.cycle 7, 0, 3);
    ]

let golden_table () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (name, inst) ->
      List.iter
        (fun protocol ->
          List.iter
            (fun (label, program) ->
              let r = Campaign.execute protocol inst ~x_dealer program in
              Buffer.add_string buf
                (Printf.sprintf
                   "%s %s %s %s -> %s rounds=%d messages=%d truncated=%b\n"
                   name
                   (Campaign.protocol_to_string protocol)
                   (Nodeset.to_string (Program.corrupted program))
                   label
                   (Campaign.verdict_to_string r.verdict)
                   r.rounds r.messages r.truncated))
            (Campaign.battery_programs protocol inst ~x_fake))
        Campaign.[ Pka; Zcpa ])
    (checked_in () @ e2_instances ());
  Buffer.contents buf

let test_golden () =
  let expected = In_channel.with_open_bin golden_path In_channel.input_all in
  Alcotest.(check string) "battery golden" expected (golden_table ())

let () =
  if Array.length Sys.argv > 1 && String.equal Sys.argv.(1) "--print" then
    print_string (golden_table ())
  else
    Alcotest.run "battery-golden"
      [ ("golden", [ Alcotest.test_case "runs" `Quick test_golden ]) ]
