open Rmt_base

type t = {
  bound : int;
  decide : seq:int -> round:int -> src:int -> dst:int -> Schedule.decision;
}

let bound t = t.bound
let decide t ~seq ~round ~src ~dst = t.decide ~seq ~round ~src ~dst

let sync =
  {
    bound = 1;
    decide = (fun ~seq:_ ~round:_ ~src:_ ~dst:_ -> Schedule.sync_decision);
  }

type params = {
  delay_bound : int;
  p_late : float;
  p_reorder : float;
  key_bound : int;
  p_dup : float;
  p_drop : float;
  drop_budget : int;
}

let default_params =
  {
    delay_bound = 3;
    p_late = 0.3;
    p_reorder = 0.25;
    key_bound = 4;
    p_dup = 0.05;
    p_drop = 0.1;
    drop_budget = 2;
  }

let lossless_params = { default_params with p_drop = 0.0; drop_budget = 0 }

let timely_params =
  {
    delay_bound = 1;
    p_late = 0.0;
    p_reorder = 0.4;
    key_bound = 4;
    p_dup = 0.1;
    p_drop = 0.0;
    drop_budget = 0;
  }

let random rng params =
  if params.delay_bound < 1 || params.delay_bound > Schedule.max_bound then
    invalid_arg "Policy.random: delay_bound outside [1, Schedule.max_bound]";
  if params.key_bound < 0 then
    invalid_arg "Policy.random: negative key_bound";
  (* closure state, not module state: one policy drives one run *)
  let drops_left = ref params.drop_budget in
  let decide ~seq:_ ~round:_ ~src:_ ~dst:_ =
    if !drops_left > 0 && Prng.chance rng params.p_drop then begin
      decr drops_left;
      Schedule.drop_decision
    end
    else begin
      let delay =
        if params.delay_bound > 1 && Prng.chance rng params.p_late then
          2 + Prng.int rng (params.delay_bound - 1)
        else 1
      in
      let key =
        if params.key_bound > 0 && Prng.chance rng params.p_reorder then
          1 + Prng.int rng params.key_bound
        else 0
      in
      if Prng.chance rng params.p_dup then
        let dup = Some (1 + Prng.int rng params.delay_bound) in
        { Schedule.drop = false; delay; key; dup }
      else if delay = 1 && key = 0 then Schedule.sync_decision
      else { Schedule.drop = false; delay; key; dup = None }
    end
  in
  { bound = params.delay_bound; decide }

let of_schedule sched =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (seq, d) -> Hashtbl.replace tbl seq d)
    (Schedule.entries sched);
  let decide ~seq ~round:_ ~src:_ ~dst:_ =
    match Hashtbl.find_opt tbl seq with
    | Some d -> d
    | None -> Schedule.sync_decision
  in
  { bound = Schedule.bound sched; decide }

let record t =
  let entries = ref [] in
  let decide ~seq ~round ~src ~dst =
    let d = t.decide ~seq ~round ~src ~dst in
    if not (Schedule.decision_is_sync d) then entries := (seq, d) :: !entries;
    d
  in
  let freeze () = Schedule.make ~bound:t.bound (List.rev !entries) in
  ({ t with decide }, freeze)
