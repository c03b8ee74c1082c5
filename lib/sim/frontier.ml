type point = {
  delay_bound : int;
  drop_budget : int;
}

type row = {
  point : point;
  in_envelope : bool;
  schedules : int;
  delivered : int;
  silenced : int;
  violated : int;
  liveness_lost : int;
}

let default_grid =
  [
    { delay_bound = 1; drop_budget = 0 };
    { delay_bound = 2; drop_budget = 1 };
    { delay_bound = 3; drop_budget = 2 };
    { delay_bound = 4; drop_budget = 4 };
    { delay_bound = 6; drop_budget = 12 };
  ]

(* Conformance to an envelope constrains delay_bound and drop_budget
   only, so the exploration probabilities can be pushed well past
   Policy.default_params: inside points become harsher safety evidence
   and outside points get a realistic chance to exhibit the violations
   that trace the empirical frontier (sparse lateness/loss almost never
   concentrates enough damage on one flooding wave). *)
let params_of_point pt =
  {
    Policy.default_params with
    Policy.delay_bound = pt.delay_bound;
    p_late = (if pt.delay_bound <= 1 then 0. else 0.6);
    p_drop = (if pt.drop_budget <= 0 then 0. else 0.4);
    drop_budget = pt.drop_budget;
  }

let schedules = 60

let run ?domains ~seed protocol inst grid =
  List.map
    (fun pt ->
      let params = params_of_point pt in
      let (report : Sweep.report) =
        Sweep.run ?domains ~params ~seed ~schedules protocol inst
      in
      {
        point = pt;
        in_envelope =
          Envelope_check.params_within params Rmt_protocols.Envelope.default;
        schedules = report.trials;
        delivered = report.delivered;
        silenced = report.silenced;
        violated = report.violated;
        liveness_lost = report.liveness_lost;
      })
    grid

let to_table rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "delay drops envelope schedules delivered silenced violated \
     liveness_lost\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%5d %5d %8s %9d %9d %8d %8d %13d\n" r.point.delay_bound
           r.point.drop_budget
           (if r.in_envelope then "inside" else "outside")
           r.schedules r.delivered r.silenced r.violated r.liveness_lost))
    rows;
  Buffer.contents buf
