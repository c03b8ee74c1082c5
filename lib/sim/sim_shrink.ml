(* Greedy delta-debugging over a recorded schedule: the candidate moves
   below, run by Rmt_attack.Shrink's greedy fixpoint.  Every move
   strictly decreases Schedule.size (an entry is removed, a duplication or
   key vanishes, or a delay shortens), so the fixpoint terminates without
   the budget; the budget only caps re-execution cost.  Candidates are
   enumerated in a fixed order and the first acceptable one is taken, so
   the result is deterministic in (schedule, keep). *)

let candidates (s : Schedule.t) =
  let entries = Schedule.entries s in
  let bound = Schedule.bound s in
  let n = List.length entries in
  let rebuild entries' = Schedule.make ~bound entries' in
  (* removing an entry makes that message synchronous — the biggest
     simplification, tried first *)
  let remove =
    Seq.init n (fun i -> rebuild (Rmt_attack.Shrink.drop_nth entries i))
  in
  let weaken =
    Seq.concat_map
      (fun i ->
        let seq_no, d = List.nth entries i in
        let put d' =
          rebuild
            (List.mapi (fun j e -> if j = i then (seq_no, d') else e) entries)
        in
        let moves =
          (match d.Schedule.dup with
           | Some _ -> [ put { d with Schedule.dup = None } ]
           | None -> [])
          @ (if d.Schedule.key <> 0 then [ put { d with Schedule.key = 0 } ]
             else [])
          @
          if d.Schedule.delay > 1 then
            put { d with Schedule.delay = 1 }
            :: (if d.Schedule.delay > 2 then
                  [ put { d with Schedule.delay = (d.Schedule.delay + 1) / 2 } ]
                else [])
          else []
        in
        List.to_seq moves)
      (Seq.init n Fun.id)
  in
  Seq.append remove weaken

let minimize ?(budget = 400) ~keep sched =
  Rmt_attack.Shrink.greedy ~budget ~keep ~candidates sched
