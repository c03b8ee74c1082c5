open Rmt_base
open Rmt_attack

let runner ~policy =
  {
    Campaign.run =
      (fun ?max_messages ?size_of ?stop_when ?on_deliver ~graph ~adversary
           auto ->
        Sim.run ?max_messages ?size_of ?stop_when ?on_deliver ~policy ~graph
          ~adversary auto);
  }

let execute_recorded ~params ~sched_seed protocol inst ~x_dealer p =
  let rng = Prng.create sched_seed in
  let policy, freeze = Policy.record (Policy.random rng params) in
  let r =
    Campaign.execute ~runner:(runner ~policy) protocol inst ~x_dealer p
  in
  (r, freeze ())

let replay (r : Replay.t) sched =
  Campaign.execute_traced
    ~runner:(runner ~policy:(Policy.of_schedule sched))
    r.Replay.protocol r.Replay.instance ~x_dealer:r.Replay.x_dealer
    r.Replay.program

(* ------------------------------------------------------------------ *)
(* Reproducer pairs                                                    *)
(* ------------------------------------------------------------------ *)

let sched_path_of rmt = Filename.remove_extension rmt ^ ".sched"

let ( let* ) = Result.bind

let write_pair ~rmt (r : Replay.t) sched =
  let* () = Replay.to_file rmt r in
  let* () = Schedule.to_file (sched_path_of rmt) sched in
  Ok (sched_path_of rmt)

let load_pair ~rmt =
  let* r = Replay.of_file rmt in
  let* sched = Schedule.of_file (sched_path_of rmt) in
  Ok (r, sched)
