(* Regenerates the pinned reproducer pairs under test/sim/fixtures/.

   strawman_reorder.{rmt,sched} — the order-sensitive strawman receiver
   on figure1_basic: node 1 honestly relays the dealer's value but flips
   it to 80.  Under the synchronous schedule the receiver hears the
   honest relays first and delivers; the search finds a seeded random
   schedule under which the flipped value arrives first, then shrinks it
   to the minimal set of scheduling decisions that still flips the
   verdict.

   pka_async_delay.{rmt,sched} and pka_message_loss.{rmt,sched} — the
   two model boundaries of Theorem 4, found by sweeping the full
   message adversary over the shared small-instance distribution for
   triples where RMT-PKA decides a wrong value, then shrinking.  The
   delay witness defers honest evidence past the receiver's decision
   round using only late deliveries (the paper's synchrony assumption);
   the loss witness drops it outright (the reliable-channel
   assumption).  Under timely schedules no violation exists.

   Run from the repository root:  dune exec test/sim/gen_fixture.exe *)

open Rmt_base
open Rmt_knowledge
open Rmt_attack
open Rmt_sim

let shrink_and_write ~rmt protocol inst ~x_dealer program (r, sched) =
  let r', sched' = Sweep.shrink_violation protocol ~x_dealer inst (r, sched) in
  let replay =
    Replay.make ~expected:r'.Campaign.verdict ~protocol ~x_dealer inst program
  in
  match Sim_exec.write_pair ~rmt replay sched' with
  | Ok sched_path ->
    Printf.printf "%s: verdict=%s entries %d -> %d\n" sched_path
      (Campaign.verdict_to_string r'.Campaign.verdict)
      (List.length (Schedule.entries sched))
      (List.length (Schedule.entries sched'))
  | Error e -> failwith e

(* --- strawman_reorder ---------------------------------------------- *)

let gen_strawman () =
  let inst =
    match Codec.of_file "instances/figure1_basic.rmt" with
    | Ok i -> i
    | Error e -> failwith e
  in
  let x_dealer = 42 in
  let program =
    Program.make ~seed:2016
      [
        {
          Program.node = 1;
          base = Program.Honest;
          injects = [ Program.Flip_value 80 ];
        };
      ]
  in
  let sync_r =
    Campaign.execute
      ~runner:(Sim_exec.runner ~policy:Policy.sync)
      Campaign.Strawman inst ~x_dealer program
  in
  (match sync_r.Campaign.verdict with
   | Campaign.Delivered -> ()
   | v ->
     failwith
       ("synchronous run must deliver, got " ^ Campaign.verdict_to_string v));
  let rec search seed =
    if seed > 10_000 then failwith "no violating schedule found"
    else
      let r, sched =
        Sim_exec.execute_recorded ~params:Policy.timely_params
          ~sched_seed:seed Campaign.Strawman inst ~x_dealer program
      in
      match r.Campaign.verdict with
      | Campaign.Violated _ -> (r, sched)
      | Campaign.Delivered | Campaign.Silenced -> search (seed + 1)
  in
  shrink_and_write ~rmt:"test/sim/fixtures/strawman_reorder.rmt"
    Campaign.Strawman inst ~x_dealer program (search 0)

(* --- pka_message_loss ---------------------------------------------- *)

(* the shared small-instance distribution of test/gen *)
let small_instance_of_rng rng =
  let open Rmt_graph in
  let open Rmt_adversary in
  let n = 5 + Prng.int rng 3 in
  let g = Generators.random_connected_gnp rng n 0.5 in
  let structure =
    if Prng.bool rng then Builders.global_threshold g ~dealer:0 1
    else Builders.random_antichain rng g ~dealer:0 ~sets:3 ~max_size:2
  in
  Instance.ad_hoc_of ~graph:g ~structure ~dealer:0 ~receiver:(n - 1)

(* Sweep the small-instance distribution under [params] for a PKA
   safety violation whose SHRUNK schedule satisfies [witness]; write it
   as [name].{rmt,sched}. *)
let gen_pka_boundary ~name ~params ~witness =
  let x_dealer = 7 in
  let result = ref None in
  let outer = ref 0 in
  while !result = None do
    if !outer > 50_000 then failwith (name ^ ": no violation found");
    let rng = Prng.create !outer in
    let inst = small_instance_of_rng rng in
    let solvability = Campaign.solvability Campaign.Pka inst in
    for _ = 1 to 4 do
      let p = Strategy_gen.random rng inst ~x_dealer ~x_fake:8 in
      let sched_seed = Prng.int rng 1_073_741_823 in
      if !result = None then begin
        let r, sched =
          Sim_exec.execute_recorded ~params ~sched_seed Campaign.Pka inst
            ~x_dealer p
        in
        let admissible = Instance.admissible inst (Program.corrupted p) in
        if
          Campaign.classify ~solvability ~admissible r
          = Campaign.Safety_violation
        then begin
          (* the violation must be the scheduler's doing *)
          let sync_r =
            Campaign.execute
              ~runner:(Sim_exec.runner ~policy:Policy.sync)
              Campaign.Pka inst ~x_dealer p
          in
          match sync_r.Campaign.verdict with
          | Campaign.Violated _ -> ()
          | Campaign.Delivered | Campaign.Silenced ->
            let _, sched' =
              Sweep.shrink_violation Campaign.Pka ~x_dealer inst (r, sched)
            in
            if witness sched' then result := Some (inst, p, r, sched)
        end
      end
    done;
    incr outer
  done;
  let inst, p, r, sched = Option.get !result in
  Printf.printf "%s witness: outer seed %d\n" name (!outer - 1);
  shrink_and_write
    ~rmt:("test/sim/fixtures/" ^ name ^ ".rmt")
    Campaign.Pka inst ~x_dealer p (r, sched)

let () =
  gen_strawman ();
  (* delay witness: violation reachable without loss, shrunk to pure
     late deliveries *)
  gen_pka_boundary ~name:"pka_async_delay" ~params:Policy.lossless_params
    ~witness:(fun sched ->
      List.for_all
        (fun (_, d) -> not d.Schedule.drop)
        (Schedule.entries sched));
  (* loss witness: drop-only policy, so every surviving entry is a drop *)
  gen_pka_boundary ~name:"pka_message_loss"
    ~params:
      {
        Policy.timely_params with
        Policy.p_reorder = 0.0;
        p_dup = 0.0;
        p_drop = 0.15;
        drop_budget = 3;
      }
    ~witness:(fun sched ->
      List.exists (fun (_, d) -> d.Schedule.drop) (Schedule.entries sched))
