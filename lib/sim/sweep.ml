open Rmt_base
open Rmt_attack

type report = Schedule.t Campaign.report

let run ?domains ?should_stop ?(x_dealer = 7) ?(x_fake = 8)
    ?(params = Policy.timely_params) ~seed ~schedules protocol inst =
  Campaign.run_trials ?domains ?should_stop ~seed ~trials:schedules
    protocol inst ~solvability:(Campaign.solvability protocol inst)
    ~draw:(fun rng ->
      let p = Strategy_gen.random rng inst ~x_dealer ~x_fake in
      (p, Prng.int rng 1_073_741_823))
    ~exec:(fun (p, sched_seed) ->
      Sim_exec.execute_recorded ~params ~sched_seed protocol inst ~x_dealer p)

let shrink_violation ?budget protocol ~x_dealer inst
    ((r : Campaign.run_report), sched) =
  let exec sched =
    Campaign.execute
      ~runner:(Sim_exec.runner ~policy:(Policy.of_schedule sched))
      protocol inst ~x_dealer r.program
  in
  let sched' =
    Sim_shrink.minimize ?budget
      ~keep:(fun s -> Campaign.reproduces ~verdict:r.verdict (exec s))
      sched
  in
  (exec sched', sched')

let pp_report = Campaign.pp_trials ~title:"schedule sweep" ~count:"schedules"
