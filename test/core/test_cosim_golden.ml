(* Pins the Figure 2 co-simulation's observable output.

   Per instance and per cut witness (the RMT-cut of [Cut.find_rmt_cut]
   and the Z-pp cut of [Cut.find_rmt_zpp_cut]), the verdicts of the
   RMT-PKA, Z-CPA and naive-flooding attack pairs: the receiver's
   decisions in runs e and e', [views_agree], [safety_broken] and the
   decisions of every B-side node in both runs.  Per instance also one
   honest Z-CPA run with the Theorem 9 simulated decider (which
   co-simulates a pair per value class): its decision, rounds, messages,
   the number of decider calls, how many certified a value, and a digest
   of the whole call log.  The instances are every checked-in
   instances/*.rmt plus 80 seeded n = 10 [Workload.tightness_suite]
   instances.  Regenerate, only when a behaviour change is intended,
   from the repository root with
     dune build test/core/test_cosim_golden.exe
     (cd _build/default/test/core && ./test_cosim_golden.exe --print) \
       > test/core/fixtures/cosim_verdicts.golden *)

open Rmt_base
open Rmt_knowledge
open Rmt_core

let instances_dir = "../../instances"
let golden_path = "fixtures/cosim_verdicts.golden"
let suite_count = 80

let checked_in () =
  Sys.readdir instances_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rmt")
  |> List.sort String.compare
  |> List.map (fun f ->
         match Codec.of_file (Filename.concat instances_dir f) with
         | Ok inst -> (Filename.chop_suffix f ".rmt", inst)
         | Error e -> failwith (Printf.sprintf "cannot load %s: %s" f e))

let suite () =
  List.mapi
    (fun i (l : Rmt_workloads.Workload.labelled) ->
      (Printf.sprintf "n10/%d/%s" i l.label, l.instance))
    (Rmt_workloads.Workload.tightness_suite (Prng.create 2303)
       ~count:suite_count ~n:10)

let dec = function None -> "-" | Some x -> string_of_int x

let b_side_observed (w : Cut.witness) (v : Attack.verdict) =
  List.filter (fun (u, _) -> Nodeset.mem u w.b_side) v.observed

let verdict_string (w : Cut.witness) (v : Attack.verdict) =
  Printf.sprintf "%s %s %b %b [%s]" (dec v.decision_e) (dec v.decision_e')
    v.views_agree v.safety_broken
    (String.concat " "
       (List.map
          (fun (u, (de, de')) -> Printf.sprintf "%d:%s/%s" u (dec de) (dec de'))
          (b_side_observed w v)))

let attack_lines name kind (inst : Instance.t) (cut : Cut.verdict) =
  match cut.cut_found with
  | None -> [ Printf.sprintf "%s %s none" name kind ]
  | Some w ->
    let naive x =
      Rmt_protocols.Naive.first_value inst.graph ~dealer:inst.dealer
        ~receiver:inst.receiver ~x_dealer:x
    in
    List.map
      (fun (protocol, v) ->
        Printf.sprintf "%s %s %s %s" name kind protocol (verdict_string w v))
      [
        ("pka", Attack.against_rmt_pka inst w ~x0:0 ~x1:1);
        ("zcpa", Attack.against_zcpa inst w ~x0:0 ~x1:1);
        ( "naive",
          Attack.co_simulate ~graph:inst.graph ~c1:w.c1 ~c2:w.c2 (naive 0)
            (naive 1) ~receiver:inst.receiver );
      ]

let simulated_line name (inst : Instance.t) =
  let log = Buffer.create 256 and calls = ref 0 and certified = ref 0 in
  let d = Self_reduction.simulated_decider inst in
  let decider ~v classes =
    let r = d ~v classes in
    incr calls;
    if r <> None then incr certified;
    Buffer.add_string log
      (Printf.sprintf "%d:%s:%s;" v
         (String.concat ","
            (List.map
               (fun (x, s) -> Printf.sprintf "%d=%s" x (Nodeset.to_string s))
               classes))
         (dec r));
    r
  in
  let r = Zcpa.run ~decider inst ~x_dealer:5 in
  Printf.sprintf "%s simulated %s %d %d calls=%d certified=%d %s" name
    (dec r.decided) r.rounds r.messages !calls !certified
    (Digest.to_hex (Digest.string (Buffer.contents log)))

let lines (name, inst) =
  attack_lines name "rmt" inst (Cut.find_rmt_cut inst)
  @ attack_lines name "zpp" inst (Cut.find_rmt_zpp_cut inst)
  @ [ simulated_line name inst ]

let golden_table () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun entry ->
      List.iter (fun l -> Buffer.add_string buf (l ^ "\n")) (lines entry))
    (checked_in () @ suite ());
  Buffer.contents buf

let () =
  match Sys.argv with
  | [| _; "--print" |] -> print_string (golden_table ())
  | _ ->
    Alcotest.run "cosim-golden"
      [
        ( "golden",
          [
            Alcotest.test_case "co-simulation verdicts" `Quick (fun () ->
                let expected =
                  In_channel.with_open_bin golden_path In_channel.input_all
                in
                Alcotest.(check string)
                  "cosim verdict golden" expected (golden_table ()));
          ] );
      ]
